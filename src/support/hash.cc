#include "support/hash.h"

namespace portend {

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i)
        h = fnv1aByte(h, p[i]);
    return h;
}

std::uint64_t
fnv1a(std::string_view s, std::uint64_t seed)
{
    return fnv1a(s.data(), s.size(), seed);
}

std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    // Boost-style mixing adapted to 64 bits.
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
    return h * kFnvPrime;
}

} // namespace portend
