/**
 * @file
 * Small string helpers shared across modules.
 */

#ifndef PORTEND_SUPPORT_STR_H
#define PORTEND_SUPPORT_STR_H

#include <charconv>
#include <cstdint>
#include <string>
#include <vector>

namespace portend {

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Append integer @p v in decimal (the digits std::to_string and an
 *  ostream write), without a temporary string. */
template <typename T>
void
appendNum(std::string &out, T v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** Split @p s on character @p sep (no empty-token suppression). */
std::vector<std::string> split(const std::string &s, char sep);

/**
 * Parse a signed decimal 64-bit integer: an optional '-' and digits,
 * nothing else (no blanks, no '+', no trailing junk), with a value in
 * [INT64_MIN, INT64_MAX]. This is std::from_chars over the whole
 * string, the rule corpus meta.txt and the PIL parser also follow.
 * Returns false without touching @p out on any rejection.
 */
bool parseI64(const std::string &s, std::int64_t *out);

} // namespace portend

#endif // PORTEND_SUPPORT_STR_H
