#include "support/str.h"

#include <cerrno>
#include <cstdlib>

namespace portend {

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

bool
parseI64(const std::string &s, std::int64_t *out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (errno == ERANGE)
        return false; // strtoll saturated: the value does not fit
    if (!end || end == s.c_str() || *end != '\0')
        return false;
    *out = static_cast<std::int64_t>(v);
    return true;
}

} // namespace portend
