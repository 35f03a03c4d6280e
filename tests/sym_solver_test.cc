/** @file Unit and property tests for the small-model solver. */

#include <gtest/gtest.h>

#include "support/rng.h"
#include "sym/simplify.h"
#include "sym/solver.h"

namespace portend::sym {
namespace {

ExprPtr
sym01(int id, std::int64_t lo, std::int64_t hi)
{
    return Expr::symbol("s" + std::to_string(id), id, Width::I64, lo,
                        hi);
}

TEST(SolverTest, TrivialSatAndUnsat)
{
    Solver s;
    Model m;
    EXPECT_EQ(s.checkSat({}, &m), SatResult::Sat);
    EXPECT_EQ(s.checkSat({Expr::boolean(false)}, nullptr),
              SatResult::Unsat);
    EXPECT_EQ(s.checkSat({Expr::boolean(true)}, nullptr),
              SatResult::Sat);
}

TEST(SolverTest, ModelSatisfiesConstraints)
{
    Solver s;
    ExprPtr x = sym01(0, 0, 100);
    ExprPtr y = sym01(1, 0, 100);
    std::vector<ExprPtr> cs{
        mkSlt(mkConst(10), x),            // 10 < x
        mkSlt(x, mkConst(15)),            // x < 15
        mkEq(mkAdd(x, y), mkConst(30)),   // x + y == 30
    };
    Model m;
    ASSERT_EQ(s.checkSat(cs, &m), SatResult::Sat);
    for (const auto &c : cs)
        EXPECT_NE(c->evaluate(m), 0) << c->toString();
}

TEST(SolverTest, UnsatOnEmptyDomainIntersection)
{
    Solver s;
    ExprPtr x = sym01(0, 0, 7);
    EXPECT_EQ(s.checkSat({mkSlt(mkConst(9), x)}, nullptr),
              SatResult::Unsat);
    EXPECT_EQ(s.checkSat({mkEq(x, mkConst(3)),
                          mkEq(x, mkConst(4))},
                         nullptr),
              SatResult::Unsat);
}

TEST(SolverTest, MustAndMayBeTrue)
{
    Solver s;
    ExprPtr x = sym01(0, 5, 10);
    std::vector<ExprPtr> pc{mkSlt(x, mkConst(8))};
    EXPECT_TRUE(s.mustBeTrue(pc, mkSlt(x, mkConst(9))));
    EXPECT_FALSE(s.mustBeTrue(pc, mkSlt(x, mkConst(7))));
    EXPECT_TRUE(s.mayBeTrue(pc, mkEq(x, mkConst(6))));
    EXPECT_FALSE(s.mayBeTrue(pc, mkEq(x, mkConst(9))));
}

TEST(SolverTest, StatsCount)
{
    Solver s;
    ExprPtr x = sym01(0, 0, 3);
    EXPECT_EQ(s.checkSat({mkEq(x, mkConst(2))}, nullptr), SatResult::Sat);
    EXPECT_EQ(s.stats().queries, 1u);
}

TEST(SolverTest, LargeDomainSamplingFindsLiteralSolutions)
{
    // The domain is too large to enumerate, but the constraint
    // mentions the literal, which seeds the candidates.
    Solver s;
    ExprPtr x = sym01(0, INT64_MIN / 2, INT64_MAX / 2);
    Model m;
    ASSERT_EQ(s.checkSat({mkEq(x, mkConst(123456789))}, &m),
              SatResult::Sat);
    EXPECT_EQ(m.lookup(0), 123456789);
}

TEST(PathConditionTest, DropsTrueDetectsFalse)
{
    PathCondition pc;
    pc.add(Expr::boolean(true));
    EXPECT_EQ(pc.size(), 0u);
    ExprPtr x = sym01(0, 0, 5);
    pc.add(mkSlt(x, mkConst(3)));
    pc.add(mkSlt(x, mkConst(3))); // duplicate dropped
    EXPECT_EQ(pc.size(), 1u);
    EXPECT_FALSE(pc.trivialFalse());
    pc.add(Expr::boolean(false));
    EXPECT_TRUE(pc.trivialFalse());
}

TEST(EvalPartialTest, ShortCircuits)
{
    ExprPtr x = sym01(0, 0, 5);
    Model empty;
    // LAnd with a false bound side decides without the other.
    ExprPtr e = Expr::binary(ExprKind::LAnd, Expr::boolean(false),
                             mkSlt(x, mkConst(3)));
    // The simplifier already folds this; build the unfolded shape.
    ExprPtr g = Expr::binary(ExprKind::LAnd, mkSlt(x, mkConst(3)),
                             mkEq(x, mkConst(9)));
    Model m9;
    m9.values[0] = 9;
    EXPECT_EQ(evalPartial(e, empty).value_or(-1), 0);
    EXPECT_EQ(evalPartial(g, m9).value_or(-1), 0);
    EXPECT_FALSE(evalPartial(mkSlt(x, mkConst(3)), empty));
}

/**
 * Property: on random constraint sets over small domains, Sat
 * answers carry valid models, and Unsat answers are confirmed by
 * exhaustive enumeration.
 */
class SolverAgainstBruteForce : public ::testing::TestWithParam<int>
{
};

TEST_P(SolverAgainstBruteForce, AgreesWithEnumeration)
{
    Rng rng(GetParam() * 104729 + 11);
    for (int round = 0; round < 25; ++round) {
        ExprPtr x = sym01(0, 0, 6);
        ExprPtr y = sym01(1, -3, 3);
        std::vector<ExprPtr> cs;
        const int n = 1 + static_cast<int>(rng.below(3));
        for (int i = 0; i < n; ++i) {
            ExprPtr lhs = rng.chance(1, 2)
                              ? mkAdd(x, y)
                              : mkMul(x, mkConst(rng.range(1, 3)));
            ExprPtr rhs = mkConst(rng.range(-4, 10));
            switch (rng.below(3)) {
              case 0: cs.push_back(mkEq(lhs, rhs)); break;
              case 1: cs.push_back(mkSlt(lhs, rhs)); break;
              default: cs.push_back(mkSle(rhs, lhs)); break;
            }
        }
        Solver solver;
        Model m;
        SatResult r = solver.checkSat(cs, &m);

        bool truly_sat = false;
        for (std::int64_t vx = 0; vx <= 6 && !truly_sat; ++vx) {
            for (std::int64_t vy = -3; vy <= 3 && !truly_sat; ++vy) {
                Model probe;
                probe.values[0] = vx;
                probe.values[1] = vy;
                bool all = true;
                for (const auto &c : cs)
                    all = all && c->evaluate(probe) != 0;
                truly_sat = all;
            }
        }
        ASSERT_NE(r, SatResult::Unknown);
        EXPECT_EQ(r == SatResult::Sat, truly_sat);
        if (r == SatResult::Sat) {
            for (const auto &c : cs)
                EXPECT_NE(c->evaluate(m), 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgainstBruteForce,
                         ::testing::Range(0, 10));

} // namespace
} // namespace portend::sym
