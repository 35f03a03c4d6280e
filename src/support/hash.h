/**
 * @file
 * FNV-1a hashing and hash chains.
 *
 * Portend hashes program outputs (when they are concrete) and can
 * maintain a hash chain of all outputs to derive a single hash code
 * per execution (paper §4); these are the primitives behind that.
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

/**
 * Incremental hash chain over a sequence of records.
 *
 * Each appended record is folded into a single accumulator, so one
 * 64-bit digest summarizes an arbitrarily long output stream.
 */
class HashChain
{
  public:
    HashChain() : acc(kFnvOffset) {}

    /** Fold a string record into the chain. */
    void
    append(std::string_view rec)
    {
        acc = fnv1a(rec, acc);
        acc = hashCombine(acc, rec.size());
        count_ += 1;
    }

    /** Fold an integer record into the chain. */
    void
    append(std::uint64_t v)
    {
        acc = hashCombine(acc, v);
        count_ += 1;
    }

    /** Current digest. */
    std::uint64_t digest() const { return acc; }

    /** Number of records appended. */
    std::uint64_t count() const { return count_; }

    bool operator==(const HashChain &o) const = default;

  private:
    std::uint64_t acc;
    std::uint64_t count_ = 0;
};

} // namespace portend

#endif // PORTEND_SUPPORT_HASH_H
