/** @file End-to-end tests for the Portend classifier. */

#include <gtest/gtest.h>

#include <string_view>
#include <tuple>

#include "ir/builder.h"
#include "portend/outputcmp.h"
#include "portend/portend.h"

namespace portend::core {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

ir::Program
outputDiffersProgram()
{
    ir::ProgramBuilder pb("outdiff");
    ir::GlobalId g = pb.global("counter");
    auto &w = pb.function("worker", 1);
    w.to(w.block("e"));
    ir::Reg v = w.load(g);
    w.store(g, I(0), R(w.bin(K::Add, R(v), I(1))));
    w.retVoid();
    auto &f = pb.function("main", 0);
    f.to(f.block("e"));
    ir::Reg t1 = f.threadCreate("worker", I(0));
    ir::Reg v0 = f.load(g);
    f.output("snapshot", R(v0));
    f.threadJoin(R(t1));
    f.halt();
    return pb.build();
}

ir::Program
redundantWriteProgram()
{
    ir::ProgramBuilder pb("redundant");
    ir::GlobalId g = pb.global("flag");
    auto &w = pb.function("worker", 1);
    w.to(w.block("e"));
    w.store(g, I(0), I(7));
    w.retVoid();
    auto &f = pb.function("main", 0);
    f.to(f.block("e"));
    ir::Reg t1 = f.threadCreate("worker", I(0));
    f.store(g, I(0), I(7));
    f.threadJoin(R(t1));
    f.halt();
    return pb.build();
}

ir::Program
adhocSyncProgram()
{
    ir::ProgramBuilder pb("adhoc");
    ir::GlobalId flag = pb.global("done");
    auto &w = pb.function("producer", 1);
    w.to(w.block("e"));
    w.store(flag, I(0), I(1));
    w.retVoid();
    auto &f = pb.function("main", 0);
    ir::BlockId e = f.block("e");
    ir::BlockId spin = f.block("spin");
    ir::BlockId done = f.block("done");
    f.to(e);
    f.threadCreate("producer", I(0));
    f.jmp(spin);
    f.to(spin);
    ir::Reg fl = f.load(flag);
    f.br(R(fl), done, spin);
    f.to(done);
    f.halt();
    return pb.build();
}

ir::Program
crashProgram()
{
    ir::ProgramBuilder pb("crash");
    ir::GlobalId idx = pb.global("idx", 1, {3});
    ir::GlobalId arr = pb.global("arr", 4);
    auto &w = pb.function("bumper", 1);
    w.to(w.block("e"));
    ir::Reg v = w.load(idx);
    w.store(idx, I(0), R(w.bin(K::Add, R(v), I(1))));
    w.retVoid();
    auto &f = pb.function("main", 0);
    f.to(f.block("e"));
    ir::Reg t1 = f.threadCreate("bumper", I(0));
    ir::Reg i = f.load(idx);
    f.store(arr, R(i), I(9));
    f.threadJoin(R(t1));
    f.halt();
    return pb.build();
}

/**
 * Two racers store 7 to `x` (the same value in either order) while a
 * third thread bumps its private `p`. Each racer yields twice first,
 * so the detection run's rotation creates both racers before the
 * first racer reaches its store, and both exist at the pre-race
 * checkpoint. The primary's third thread stores to `p` before the
 * second racing store; the alternate completes the pair first.
 */
ir::Program
thirdThreadProgram()
{
    ir::ProgramBuilder pb("third_thread");
    ir::GlobalId x = pb.global("x");
    ir::GlobalId priv = pb.global("p");
    auto &r = pb.function("racer", 1);
    r.to(r.block("e"));
    r.yield();
    r.yield();
    r.store(x, I(0), I(7));
    r.retVoid();
    auto &b = pb.function("bumper", 1);
    b.to(b.block("e"));
    for (int i = 1; i <= 8; ++i)
        b.store(priv, I(0), I(i));
    b.retVoid();
    auto &f = pb.function("main", 0);
    f.to(f.block("e"));
    ir::Reg t1 = f.threadCreate("racer", I(0));
    ir::Reg t2 = f.threadCreate("racer", I(0));
    ir::Reg t3 = f.threadCreate("bumper", I(0));
    f.threadJoin(R(t1));
    f.threadJoin(R(t2));
    f.threadJoin(R(t3));
    f.halt();
    return pb.build();
}

/**
 * Two racers store different values to `x` after the same two yields
 * (both exist at the pre-race checkpoint): the racing global itself
 * differs after the pair, and it is on both racers' may-write sets.
 */
ir::Program
racerGlobalProgram()
{
    ir::ProgramBuilder pb("racer_global");
    ir::GlobalId x = pb.global("x");
    auto &r = pb.function("racer", 1);
    r.to(r.block("e"));
    r.yield();
    r.yield();
    r.store(x, I(0), R(r.param(0)));
    r.retVoid();
    auto &f = pb.function("main", 0);
    f.to(f.block("e"));
    ir::Reg t1 = f.threadCreate("racer", I(1));
    ir::Reg t2 = f.threadCreate("racer", I(2));
    f.threadJoin(R(t1));
    f.threadJoin(R(t2));
    f.halt();
    return pb.build();
}

/**
 * The first racer stores 7 to `x` as soon as it runs, before main
 * creates the second racer, so the second racing thread does not
 * exist at the pre-race checkpoint. The second racer yields before
 * its store; in the primary, main writes `q` (which neither racer
 * writes) in between, while the alternate completes the pair first.
 */
ir::Program
lateRacerProgram()
{
    ir::ProgramBuilder pb("late_racer");
    ir::GlobalId x = pb.global("x");
    ir::GlobalId q = pb.global("q");
    auto &r = pb.function("racer", 1);
    r.to(r.block("e"));
    r.store(x, I(0), I(7));
    r.retVoid();
    auto &l = pb.function("late", 1);
    l.to(l.block("e"));
    l.yield();
    l.store(x, I(0), I(7));
    l.retVoid();
    auto &f = pb.function("main", 0);
    f.to(f.block("e"));
    ir::Reg t1 = f.threadCreate("racer", I(0));
    ir::Reg t2 = f.threadCreate("late", I(0));
    f.store(q, I(0), I(1));
    f.threadJoin(R(t1));
    f.threadJoin(R(t2));
    f.halt();
    return pb.build();
}

Classification
classifyOnly(const ir::Program &p, PortendOptions opts = {})
{
    Portend tool(p, opts);
    PortendResult res = tool.run();
    EXPECT_EQ(res.reports.size(), 1u) << p.name;
    if (res.reports.empty())
        return {};
    return res.reports[0].classification;
}

TEST(PortendTest, OutputDiffersDetected)
{
    Classification c = classifyOnly(outputDiffersProgram());
    EXPECT_EQ(c.cls, RaceClass::OutputDiffers);
    EXPECT_FALSE(c.output_diff.empty());
    EXPECT_TRUE(c.evidence_alternate);
}

TEST(PortendTest, RedundantWriteIsKWitness)
{
    Classification c = classifyOnly(redundantWriteProgram());
    EXPECT_EQ(c.cls, RaceClass::KWitnessHarmless);
    EXPECT_GE(c.k, 1);
    EXPECT_FALSE(c.states_differ); // same value written both orders
}

// The post-race memory comparison (`states_differ`) is scoped to the
// globals the two racing threads can still write: another thread's
// private progress is scheduling noise, not the race's effect.
TEST(StatesDifferScopeTest, ThirdThreadPrivateGlobalIsIgnored)
{
    Classification c = classifyOnly(thirdThreadProgram());
    EXPECT_FALSE(c.states_differ);
}

TEST(StatesDifferScopeTest, RacingThreadGlobalIsCompared)
{
    Classification c = classifyOnly(racerGlobalProgram());
    EXPECT_TRUE(c.states_differ);
}

// A racing thread created after the checkpoint has no stack to scope
// by, so the comparison falls back to the whole image and sees main's
// write to `q`.
TEST(StatesDifferScopeTest, LateRacerComparesWholeImage)
{
    Classification c = classifyOnly(lateRacerProgram());
    EXPECT_TRUE(c.states_differ);
}

TEST(PortendTest, SpinFlagIsSingleOrdering)
{
    Classification c = classifyOnly(adhocSyncProgram());
    EXPECT_EQ(c.cls, RaceClass::SingleOrdering);
}

TEST(PortendTest, IndexOverflowIsSpecViolated)
{
    Classification c = classifyOnly(crashProgram());
    EXPECT_EQ(c.cls, RaceClass::SpecViolated);
    EXPECT_EQ(c.viol, ViolationKind::Crash);
    EXPECT_NE(c.detail.find("out of bounds"), std::string::npos);
}

TEST(PortendTest, AdhocDetectionOffTurnsSingleOrderingHarmful)
{
    // Fig. 7's "single-path" configuration conservatively reports
    // unenforceable alternates as harmful, like [45].
    PortendOptions opts;
    opts.adhoc_detection = false;
    opts.multi_path = false;
    opts.multi_schedule = false;
    Classification c = classifyOnly(adhocSyncProgram(), opts);
    EXPECT_EQ(c.cls, RaceClass::SpecViolated);
    EXPECT_EQ(c.viol, ViolationKind::ReplayFailure);
}

TEST(PortendTest, KGrowsWithDials)
{
    PortendOptions small;
    small.mp = 1;
    small.ma = 1;
    Classification c1 = classifyOnly(redundantWriteProgram(), small);
    PortendOptions big;
    big.mp = 5;
    big.ma = 3;
    Classification c2 = classifyOnly(redundantWriteProgram(), big);
    EXPECT_LE(c1.k, c2.k);
}

TEST(PortendTest, FormatReportMentionsEverything)
{
    ir::Program p = crashProgram();
    Portend tool(p, PortendOptions{});
    PortendResult res = tool.run();
    ASSERT_EQ(res.reports.size(), 1u);
    std::string text = formatReport(p, res.reports[0]);
    EXPECT_NE(text.find("Data race during access to: idx"),
              std::string::npos);
    EXPECT_NE(text.find("spec violated"), std::string::npos);
    EXPECT_NE(text.find("evidence"), std::string::npos);
}

TEST(PortendTest, ByClassFilters)
{
    ir::Program p = crashProgram();
    Portend tool(p, PortendOptions{});
    PortendResult res = tool.run();
    EXPECT_EQ(res.byClass(RaceClass::SpecViolated).size(), 1u);
    EXPECT_TRUE(res.byClass(RaceClass::OutputDiffers).empty());
}

TEST(PortendTest, ByClassFiltersSyntheticResult)
{
    PortendResult res;
    auto add = [&res](RaceClass c) {
        PortendReport r;
        r.classification.cls = c;
        res.reports.push_back(r);
    };
    add(RaceClass::SpecViolated);
    add(RaceClass::OutputDiffers);
    add(RaceClass::SpecViolated);
    add(RaceClass::KWitnessHarmless);
    add(RaceClass::SingleOrdering);

    std::vector<const PortendReport *> viol =
        res.byClass(RaceClass::SpecViolated);
    ASSERT_EQ(viol.size(), 2u);
    // Pointers reference the result's own reports, in report order.
    EXPECT_EQ(viol[0], &res.reports[0]);
    EXPECT_EQ(viol[1], &res.reports[2]);
    EXPECT_EQ(res.byClass(RaceClass::OutputDiffers).size(), 1u);
    EXPECT_EQ(res.byClass(RaceClass::KWitnessHarmless).size(), 1u);
    EXPECT_EQ(res.byClass(RaceClass::SingleOrdering).size(), 1u);
    EXPECT_TRUE(res.byClass(RaceClass::Unclassified).empty());
}

TEST(ClassifyTest, RaceClassNameRoundTrips)
{
    for (RaceClass c : kAllRaceClasses) {
        std::optional<RaceClass> parsed =
            raceClassFromName(raceClassName(c));
        ASSERT_TRUE(parsed.has_value()) << raceClassName(c);
        EXPECT_EQ(*parsed, c) << raceClassName(c);
    }
}

TEST(ClassifyTest, RaceClassNamesArePaperSpellings)
{
    EXPECT_STREQ(raceClassName(RaceClass::SpecViolated),
                 "spec violated");
    EXPECT_STREQ(raceClassName(RaceClass::OutputDiffers),
                 "output differs");
    EXPECT_STREQ(raceClassName(RaceClass::KWitnessHarmless),
                 "k-witness harmless");
    EXPECT_STREQ(raceClassName(RaceClass::SingleOrdering),
                 "single ordering");
}

TEST(ClassifyTest, RaceClassFromNameRejectsUnknown)
{
    EXPECT_FALSE(raceClassFromName("benign").has_value());
    EXPECT_FALSE(raceClassFromName("").has_value());
    EXPECT_FALSE(raceClassFromName("Spec Violated").has_value());
    EXPECT_FALSE(raceClassFromName("spec violated ").has_value());
}

TEST(OutputCmpTest, ConcreteComparison)
{
    rt::OutputLog a, b;
    rt::OutputRecord r;
    r.label = "x";
    r.tid = 0;
    r.value = sym::mkConst(1);
    a.append(r);
    b.append(r);
    EXPECT_TRUE(compareConcreteOutputs(a, b).match);
    rt::OutputRecord r2 = r;
    r2.value = sym::mkConst(2);
    b.append(r2);
    EXPECT_FALSE(compareConcreteOutputs(a, b).match);
}

TEST(OutputCmpTest, SymbolicComparisonUsesConstraints)
{
    sym::ExprPtr x = sym::Expr::symbol("x", 0, sym::Width::I64, 0, 9);
    rt::OutputLog primary, alternate;
    rt::OutputRecord rp;
    rp.label = "v";
    rp.tid = 0;
    rp.value = sym::mkAdd(x, sym::mkConst(1));
    primary.append(rp);
    rt::OutputRecord ra;
    ra.label = "v";
    ra.tid = 0;
    ra.value = sym::mkConst(5);
    alternate.append(ra);

    sym::Solver solver;
    // Under x < 9 the concrete 5 is admissible (x = 4).
    std::vector<sym::ExprPtr> pc{sym::mkSlt(x, sym::mkConst(9))};
    EXPECT_TRUE(
        compareSymbolicOutputs(primary, pc, alternate, solver).match);
    // Under x > 7 it is not (x + 1 >= 9 > 5).
    std::vector<sym::ExprPtr> pc2{sym::mkSlt(sym::mkConst(7), x)};
    EXPECT_FALSE(
        compareSymbolicOutputs(primary, pc2, alternate, solver).match);
}

TEST(OutputCmpTest, PerThreadInterleavingIgnored)
{
    // Cross-thread interleaving differences are scheduler noise;
    // per-thread sequences decide equivalence.
    rt::OutputLog a, b;
    rt::OutputRecord t0;
    t0.label = "zero";
    t0.tid = 0;
    rt::OutputRecord t1;
    t1.label = "one";
    t1.tid = 1;
    a.append(t0);
    a.append(t1);
    b.append(t1);
    b.append(t0);
    EXPECT_TRUE(compareConcreteOutputs(a, b).match);
}

rt::OutputLog
outputLog(std::initializer_list<
          std::tuple<int, std::string_view, sym::ExprPtr>>
              recs)
{
    rt::OutputLog log;
    for (const auto &[tid, label, value] : recs) {
        rt::OutputRecord r;
        r.tid = tid;
        r.label = label;
        r.value = value;
        log.append(std::move(r));
    }
    return log;
}

// Every first difference either comparison can report, with its
// exact text. An empty expectation means the comparison does not
// apply to the case; the symbolic comparison runs with an empty path
// condition unless the case names one.
TEST(OutputCmpTest, FirstDifferenceMessages)
{
    using sym::mkConst;
    const sym::ExprPtr x =
        sym::Expr::symbol("x", 0, sym::Width::I64, 0, 9);
    const sym::ExprPtr x1 = sym::mkAdd(x, mkConst(1));
    const sym::ExprPtr x2 = sym::mkAdd(x, mkConst(2));
    const sym::ExprPtr wide =
        sym::Expr::symbol("x", 0, sym::Width::I64, 0, 1000000);
    struct Case
    {
        const char *name;
        rt::OutputLog a, b; ///< primary, alternate
        std::string concrete, symbolic;
        int tid1 = -1, tid2 = -1;
        std::vector<sym::ExprPtr> path_condition = {};
    };
    const Case cases[] = {
        {"racing-pair order",
         outputLog({{1, "x", mkConst(1)}, {2, "y", mkConst(2)}}),
         outputLog({{2, "y", mkConst(2)}, {1, "x", mkConst(1)}}),
         "racing threads' output records interleave differently",
         "racing threads' output records interleave differently", 1, 2},
        {"total count", outputLog({{0, "x", mkConst(1)}}),
         outputLog({{0, "x", mkConst(1)}, {0, "x", mkConst(1)}}),
         "output operation counts differ: 1 vs 2",
         "output operation counts differ: 1 vs 2"},
        {"thread set",
         outputLog({{0, "x", mkConst(1)}, {1, "y", mkConst(2)}}),
         outputLog({{0, "x", mkConst(1)}, {0, "y", mkConst(3)}}),
         "sets of output-producing threads differ",
         "sets of output-producing threads differ"},
        {"thread in one log only",
         outputLog({{0, "x", mkConst(1)}, {1, "y", mkConst(2)}}),
         outputLog({{0, "x", mkConst(1)}, {2, "y", mkConst(3)}}),
         "thread 1 produced output in only one execution",
         "thread 1 produced output in only one execution"},
        {"per-thread count",
         outputLog({{0, "x", mkConst(1)},
                    {0, "x", mkConst(2)},
                    {1, "y", mkConst(1)}}),
         outputLog({{0, "x", mkConst(1)},
                    {1, "y", mkConst(1)},
                    {1, "y", mkConst(2)}}),
         "thread 0 output counts differ: 2 vs 1",
         "thread 0 output counts differ: 2 vs 1"},
        {"label", outputLog({{0, "x", mkConst(1)}}),
         outputLog({{0, "z", mkConst(1)}}),
         "labels differ: output[0] at <unknown>:0 (T0): x=1 vs "
         "output[0] at <unknown>:0 (T0): z=1",
         "labels differ: output[0] at <unknown>:0 (T0): x=1 vs "
         "output[0] at <unknown>:0 (T0): z=1"},
        {"payload presence", outputLog({{0, "x", nullptr}}),
         outputLog({{0, "x", mkConst(1)}}),
         "payload presence differs at output[0] at <unknown>:0 (T0): x",
         "payload presence differs at output[0] at <unknown>:0 (T0): x"},
        {"concrete values", outputLog({{0, "x", mkConst(1)}}),
         outputLog({{0, "x", mkConst(2)}}),
         "values differ: output[0] at <unknown>:0 (T0): x=1 vs "
         "output[0] at <unknown>:0 (T0): x=2",
         "values differ: output[0] at <unknown>:0 (T0): x=1 vs "
         "output[0] at <unknown>:0 (T0): x=2"},
        {"symbolic structure", outputLog({{0, "x", x1}}),
         outputLog({{0, "x", x2}}),
         "symbolic values differ structurally at output[0] at "
         "<unknown>:0 (T0): x=(add x#0 1)",
         ""},
        {"symbolic structure beside a concrete payload",
         outputLog({{0, "s", x1}, {0, "v", mkConst(3)}}),
         outputLog({{0, "s", x2}, {0, "v", mkConst(3)}}),
         "symbolic values differ structurally at output[0] at "
         "<unknown>:0 (T0): s=(add x#0 1)",
         ""},
        {"non-concrete alternate", outputLog({{0, "x", mkConst(1)}}),
         outputLog({{0, "x", x1}}), "",
         "alternate output not concrete at output[0] at <unknown>:0 "
         "(T0): x=(add x#0 1)"},
        {"unsat", outputLog({{0, "v", x1}}),
         outputLog({{0, "v", mkConst(5)}}), "",
         "alternate outputs violate primary constraints", -1, -1,
         {sym::mkSlt(mkConst(7), x)}},
        // No integer squares to 5, but x's domain is too wide to
        // enumerate, so the solver can neither find nor refute one.
        {"unknown", outputLog({{0, "v", sym::mkMul(wide, wide)}}),
         outputLog({{0, "v", mkConst(5)}}), "",
         "solver could not validate output equivalence"},
    };
    for (const Case &c : cases) {
        if (!c.concrete.empty()) {
            OutputComparison cmp =
                compareConcreteOutputs(c.a, c.b, c.tid1, c.tid2);
            EXPECT_FALSE(cmp.match) << c.name;
            EXPECT_EQ(cmp.diff, c.concrete) << c.name;
        }
        if (!c.symbolic.empty()) {
            sym::Solver solver;
            OutputComparison cmp = compareSymbolicOutputs(
                c.a, c.path_condition, c.b, solver, c.tid1, c.tid2);
            EXPECT_FALSE(cmp.match) << c.name;
            EXPECT_EQ(cmp.diff, c.symbolic) << c.name;
        }
    }
}

} // namespace
} // namespace portend::core

namespace portend::core {
namespace {

TEST(EvidenceReplayTest, CrashEvidenceReproduces)
{
    ir::Program p = crashProgram();
    Portend tool(p, PortendOptions{});
    DetectionResult det = tool.detect();
    ASSERT_EQ(det.clusters.size(), 1u);
    RaceAnalyzer analyzer(p, PortendOptions{});
    Classification verdict = analyzer.classify(
        det.clusters[0].representative, det.trace);
    ASSERT_EQ(verdict.cls, RaceClass::SpecViolated);

    // Replaying the evidence deterministically reproduces the crash.
    RaceAnalyzer::EvidenceReplay replay = analyzer.replayEvidence(
        det.clusters[0].representative, det.trace, verdict);
    EXPECT_TRUE(rt::isSpecViolation(replay.outcome))
        << rt::runOutcomeName(replay.outcome) << ": " << replay.detail;
}

TEST(EvidenceReplayTest, HarmlessEvidenceCompletes)
{
    ir::Program p = redundantWriteProgram();
    Portend tool(p, PortendOptions{});
    DetectionResult det = tool.detect();
    ASSERT_EQ(det.clusters.size(), 1u);
    RaceAnalyzer analyzer(p, PortendOptions{});
    Classification verdict = analyzer.classify(
        det.clusters[0].representative, det.trace);
    ASSERT_EQ(verdict.cls, RaceClass::KWitnessHarmless);
    RaceAnalyzer::EvidenceReplay replay = analyzer.replayEvidence(
        det.clusters[0].representative, det.trace, verdict);
    EXPECT_EQ(replay.outcome, rt::RunOutcome::Exited);
}

} // namespace
} // namespace portend::core
