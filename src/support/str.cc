#include "support/str.h"

#include <charconv>

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
    const char *end = s.data() + s.size();
    std::int64_t v = 0;
    const auto [at, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || at != end)
        return false;
    *out = v;
    return true;
}

} // namespace portend
