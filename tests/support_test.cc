/** @file Unit tests for the support utilities. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "support/hash.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/str.h"

namespace portend {
namespace {

TEST(RngTest, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(42), c2(43);
    EXPECT_NE(a2.next(), c2.next());
}

TEST(RngTest, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(RngTest, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo = saw_lo || v == -2;
        saw_hi = saw_hi || v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_EQ(r.range(5, 5), 5);
    EXPECT_EQ(r.range(5, 1), 5); // degenerate range collapses to lo
}

TEST(HashTest, Fnv1aMatchesKnownVector)
{
    // FNV-1a of the empty string is the offset basis.
    EXPECT_EQ(fnv1a(std::string("")), kFnvOffset);
    EXPECT_NE(fnv1a(std::string("a")), fnv1a(std::string("b")));
}

TEST(StatsTest, AccumulatorMinMaxMean)
{
    Accumulator acc;
    EXPECT_EQ(acc.mean(), 0.0);
    acc.add(2.0);
    acc.add(4.0);
    acc.add(6.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 6.0);
    EXPECT_EQ(acc.count(), 3u);
}

TEST(StrTest, JoinSplitRoundTrip)
{
    std::vector<std::string> parts{"a", "bb", "", "c"};
    EXPECT_EQ(join(parts, ","), "a,bb,,c");
    EXPECT_EQ(split("a,bb,,c", ','), parts);
}

TEST(StrTest, ParseI64AcceptsTheFullRange)
{
    std::int64_t v = 0;
    EXPECT_TRUE(parseI64("0", &v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(parseI64("-42", &v));
    EXPECT_EQ(v, -42);
    EXPECT_TRUE(parseI64("9223372036854775807", &v));
    EXPECT_EQ(v, std::numeric_limits<std::int64_t>::max());
    EXPECT_TRUE(parseI64("-9223372036854775808", &v));
    EXPECT_EQ(v, std::numeric_limits<std::int64_t>::min());
}

TEST(StrTest, ParseI64RejectsOverflowNotSaturates)
{
    // The CLI regression this pins: strtoll saturates at INT64_MAX
    // with errno == ERANGE, and a missing check turned absurd flag
    // values into silently-accepted budgets.
    std::int64_t v = 0;
    EXPECT_FALSE(parseI64("9223372036854775808", &v));
    EXPECT_FALSE(parseI64("-9223372036854775809", &v));
    EXPECT_FALSE(parseI64("99999999999999999999", &v));
}

TEST(StrTest, ParseI64RejectsMalformedInput)
{
    std::int64_t v = 0;
    EXPECT_FALSE(parseI64("", &v));
    EXPECT_FALSE(parseI64("banana", &v));
    EXPECT_FALSE(parseI64("12x", &v));
    EXPECT_FALSE(parseI64("1.5", &v));
    EXPECT_FALSE(parseI64("-", &v));
}

} // namespace
} // namespace portend
