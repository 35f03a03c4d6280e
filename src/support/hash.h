/**
 * @file
 * FNV-1a hashing and 64-bit hash mixing: the content ids behind
 * program fingerprints, cache signatures and schedule signatures.
 */

#ifndef PORTEND_SUPPORT_HASH_H
#define PORTEND_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace portend {

/** 64-bit FNV-1a offset basis. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** 64-bit FNV-1a prime. */
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold one byte into an FNV-1a accumulator. */
inline std::uint64_t
fnv1aByte(std::uint64_t h, std::uint8_t b)
{
    return (h ^ b) * kFnvPrime;
}

/** Hash a byte buffer with FNV-1a. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = kFnvOffset);

/** Hash a string with FNV-1a. */
std::uint64_t fnv1a(std::string_view s, std::uint64_t seed = kFnvOffset);

/** Mix a 64-bit value into a hash accumulator. */
std::uint64_t hashCombine(std::uint64_t h, std::uint64_t v);

} // namespace portend

#endif // PORTEND_SUPPORT_HASH_H
