/**
 * @file
 * Small string helpers shared across modules.
 */

#ifndef PORTEND_SUPPORT_STR_H
#define PORTEND_SUPPORT_STR_H

#include <cstdint>
#include <string>
#include <vector>

namespace portend {

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Split @p s on character @p sep (no empty-token suppression). */
std::vector<std::string> split(const std::string &s, char sep);

/**
 * Parse a signed decimal 64-bit integer with full range checking:
 * rejects empty input, trailing junk, and — unlike a bare strtoll —
 * values outside [INT64_MIN, INT64_MAX] (strtoll saturates those and
 * only reports them through errno, which callers routinely forget to
 * check). Returns false without touching @p out on any rejection.
 */
bool parseI64(const std::string &s, std::int64_t *out);

} // namespace portend

#endif // PORTEND_SUPPORT_STR_H
