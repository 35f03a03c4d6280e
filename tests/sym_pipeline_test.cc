/** @file End-to-end tests for multi-path symbolic classification.
 *
 * Two batteries:
 *
 *  - SymPipelineTest (fast): the ibuf/iguard extension workloads
 *    classify "k-witness harmless" through the default pipeline and
 *    upgrade only under named symbolic inputs, with a
 *    solver-concretized witness value recorded in the evidence and
 *    replayed deterministically by replayEvidence (byte-identical
 *    across repeat replays and --jobs counts); without symbolic
 *    inputs, input declarations change no report byte or step.
 *
 *  - SymExhaustiveTest (slow ctest label): for programs small
 *    enough to brute-force every input value x every interleaving,
 *    the single symbolic classification run must land on the most
 *    severe verdict class the enumeration reaches — and must not
 *    invent one the enumeration cannot reach.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "portend/portend.h"
#include "rt/interpreter.h"
#include "rt/policy.h"
#include "workloads/registry.h"

namespace portend::core {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

PortendOptions
withSymInput(const std::string &name)
{
    PortendOptions o;
    o.sym_inputs.push_back(rt::SymInputSpec{name, false, 0, 0});
    return o;
}

PortendReport
classifyWorkload(const std::string &wname, PortendOptions opts = {})
{
    workloads::Workload w = workloads::buildWorkload(wname);
    Portend tool(w.program, opts);
    PortendResult res = tool.run();
    EXPECT_EQ(res.reports.size(), 1u) << wname;
    if (res.reports.empty())
        return {};
    return res.reports[0];
}

std::int64_t
witnessValue(const Classification &c, const std::string &name)
{
    for (const auto &w : c.evidence_witness) {
        if (w.name == name)
            return w.value;
    }
    ADD_FAILURE() << "no witness for input '" << name << "'";
    return -1;
}

TEST(SymPipelineTest, IbufDefaultPipelineMissesTheGate)
{
    PortendReport r = classifyWorkload("ibuf");
    EXPECT_EQ(r.classification.cls, RaceClass::KWitnessHarmless);
    EXPECT_TRUE(r.classification.evidence_witness.empty());
}

TEST(SymPipelineTest, IbufSymInputUpgradesToOutputDiffers)
{
    PortendReport r = classifyWorkload("ibuf", withSymInput("n"));
    EXPECT_EQ(r.classification.cls, RaceClass::OutputDiffers);
    // The gate is n > 4 over domain [0, 8]; the solver must pick a
    // concrete value that opens it.
    std::int64_t n = witnessValue(r.classification, "n");
    EXPECT_GT(n, 4);
    EXPECT_LE(n, 8);
    EXPECT_GT(r.classification.metrics.counter(
                  obs::Counter::ClassifySolverQueries),
              0u);
}

TEST(SymPipelineTest, IguardDefaultPipelineMissesTheGate)
{
    PortendReport r = classifyWorkload("iguard");
    EXPECT_EQ(r.classification.cls, RaceClass::KWitnessHarmless);
    EXPECT_TRUE(r.classification.evidence_witness.empty());
}

TEST(SymPipelineTest, IguardSymInputUpgradesToSpecViolated)
{
    PortendReport r = classifyWorkload("iguard", withSymInput("n"));
    EXPECT_EQ(r.classification.cls, RaceClass::SpecViolated);
    EXPECT_EQ(r.classification.viol, ViolationKind::Crash);
    // Only n >= 8 makes the bumped index overflow ig_table[9].
    EXPECT_GE(witnessValue(r.classification, "n"), 8);
}

TEST(SymPipelineTest, RangeOverrideKeepsInfeasibleGateClosed)
{
    // Restricting n to [0, 4] makes the n > 4 branch unsatisfiable,
    // so even the symbolic run must keep the harmless verdict.
    PortendOptions o;
    rt::SymInputSpec spec;
    spec.name = "n";
    spec.has_range = true;
    spec.lo = 0;
    spec.hi = 4;
    o.sym_inputs.push_back(spec);
    PortendReport r = classifyWorkload("ibuf", o);
    EXPECT_EQ(r.classification.cls, RaceClass::KWitnessHarmless);
    EXPECT_TRUE(r.classification.evidence_witness.empty());
}

std::string
renderReplay(const RaceAnalyzer::EvidenceReplay &r)
{
    std::string s = rt::runOutcomeName(r.outcome);
    s += "|" + r.detail + "|";
    for (const auto &rec : r.output.records)
        s += rec.toString() + "\n";
    return s;
}

TEST(SymPipelineTest, WitnessReplayIsByteDeterministic)
{
    for (const char *wname : {"ibuf", "iguard"}) {
        workloads::Workload w = workloads::buildWorkload(wname);
        PortendOptions opts = withSymInput("n");
        Portend tool(w.program, opts);
        DetectionResult det = tool.detect();
        ASSERT_EQ(det.clusters.size(), 1u) << wname;
        RaceAnalyzer analyzer(w.program, opts);
        Classification verdict = analyzer.classify(
            det.clusters[0].representative, det.trace);
        ASSERT_FALSE(verdict.evidence_witness.empty()) << wname;

        RaceAnalyzer::EvidenceReplay a = analyzer.replayEvidence(
            det.clusters[0].representative, det.trace, verdict);
        RaceAnalyzer::EvidenceReplay b = analyzer.replayEvidence(
            det.clusters[0].representative, det.trace, verdict);
        EXPECT_EQ(renderReplay(a), renderReplay(b)) << wname;

        if (verdict.cls == RaceClass::SpecViolated) {
            EXPECT_TRUE(rt::isSpecViolation(a.outcome))
                << wname << ": " << a.detail;
        } else {
            EXPECT_EQ(a.outcome, rt::RunOutcome::Exited) << wname;
        }
    }
}

TEST(SymPipelineTest, VerdictAndWitnessInvariantAcrossJobs)
{
    for (const char *wname : {"ibuf", "iguard"}) {
        workloads::Workload w = workloads::buildWorkload(wname);
        std::vector<std::string> renders;
        for (int jobs : {1, 4}) {
            PortendOptions opts = withSymInput("n");
            opts.jobs = jobs;
            Portend tool(w.program, opts);
            PortendResult res = tool.run();
            ASSERT_EQ(res.reports.size(), 1u) << wname;
            renders.push_back(
                formatReport(w.program, res.reports[0]));
        }
        EXPECT_EQ(renders[0], renders[1]) << wname;
        EXPECT_NE(renders[0].find("witness input: n="),
                  std::string::npos)
            << wname << ":\n"
            << renders[0];
    }
}

// Input declarations are read only by symbolic runs: without
// --sym-input, a program classifies to the same Fig. 6 bytes, the
// same classification steps and the same detection steps whether or
// not it declares its inputs.
TEST(SymPipelineTest, InputDeclarationsAloneChangeNothing)
{
    int declaring = 0;
    for (const char *wname :
         {"avv", "dcl", "dbm", "rw", "bbuf", "ibuf", "iguard"}) {
        SCOPED_TRACE(wname);
        workloads::Workload w = workloads::buildWorkload(wname);
        ir::Program bare = w.program;
        bare.inputs.clear();
        declaring += w.program.inputs.empty() ? 0 : 1;

        PortendOptions opts;
        opts.semantic_predicates = w.semantic_predicates;
        PortendResult declared = Portend(w.program, opts).run();
        PortendResult stripped = Portend(bare, opts).run();
        ASSERT_EQ(declared.reports.size(), stripped.reports.size());
        ASSERT_FALSE(declared.reports.empty());
        for (std::size_t i = 0; i < declared.reports.size(); ++i) {
            EXPECT_EQ(formatReport(w.program, declared.reports[i]),
                      formatReport(bare, stripped.reports[i]))
                << "cluster " << i;
        }
        EXPECT_EQ(declared.metrics.counter(obs::Counter::ClassifySteps),
                  stripped.metrics.counter(obs::Counter::ClassifySteps));
        EXPECT_EQ(declared.detection.steps, stripped.detection.steps);
    }
    EXPECT_GE(declaring, 2);
}

// ---------------------------------------------------------------
// Exhaustive cross-check: brute-force input x interleaving truth.
// ---------------------------------------------------------------

/** Reader prints the racy cell only when n >= 2 (domain [0, 3]). */
ir::Program
gatedOutputMicro()
{
    ir::ProgramBuilder pb("gated_out");
    ir::GlobalId cfg = pb.global("cfg");
    ir::GlobalId msg = pb.global("msg");
    auto &wr = pb.function("writer", 1);
    wr.to(wr.block("e"));
    wr.store(msg, I(0), I(1));
    wr.retVoid();
    auto &rd = pb.function("reader", 1);
    rd.to(rd.block("e"));
    ir::Reg g = rd.load(cfg);
    ir::Reg r = rd.load(msg); // racing read
    ir::BlockId big = rd.block("big");
    ir::BlockId small = rd.block("small");
    ir::BlockId done = rd.block("done");
    rd.br(R(rd.bin(K::Sge, R(g), I(2))), big, small);
    rd.to(big);
    rd.output("msg", R(r));
    rd.jmp(done);
    rd.to(small);
    rd.output("msg", I(0));
    rd.jmp(done);
    rd.to(done);
    rd.retVoid();
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    m.store(cfg, I(0), R(m.input("n", 0, 3)));
    ir::Reg t1 = m.threadCreate("writer", I(0));
    ir::Reg t2 = m.threadCreate("reader", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

/** The bumped racy index overflows tab[4] only when n >= 3. */
ir::Program
gatedCrashMicro()
{
    ir::ProgramBuilder pb("gated_crash");
    ir::GlobalId cfg = pb.global("cfg");
    ir::GlobalId idx = pb.global("idx");
    ir::GlobalId tab = pb.global("tab", 4);
    auto &user = pb.function("user", 1);
    user.to(user.block("e"));
    ir::Reg g = user.load(cfg);
    ir::Reg i = user.load(idx); // racing read
    ir::BlockId wide = user.block("wide");
    ir::BlockId narrow = user.block("narrow");
    ir::BlockId done = user.block("done");
    user.br(R(user.bin(K::Sge, R(g), I(3))), wide, narrow);
    user.to(wide);
    user.store(tab, R(user.bin(K::Add, R(i), R(g))), I(7));
    user.jmp(done);
    user.to(narrow);
    user.store(tab, R(i), I(7));
    user.jmp(done);
    user.to(done);
    user.retVoid();
    auto &bump = pb.function("bumper", 1);
    bump.to(bump.block("e"));
    ir::Reg v = bump.load(idx);
    bump.store(idx, I(0), R(bump.bin(K::Add, R(v), I(1))));
    bump.retVoid();
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    m.store(cfg, I(0), R(m.input("n", 0, 3)));
    ir::Reg t1 = m.threadCreate("user", I(0));
    ir::Reg t2 = m.threadCreate("bumper", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

/** Input-reading program whose write-write race is value-redundant:
 *  no input or interleaving changes outcome or output. */
ir::Program
redundantMicro()
{
    ir::ProgramBuilder pb("redundant_in");
    ir::GlobalId cfg = pb.global("cfg");
    ir::GlobalId flag = pb.global("flag");
    auto &w = pb.function("worker", 1);
    w.to(w.block("e"));
    w.store(flag, I(0), I(7));
    w.retVoid();
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    m.store(cfg, I(0), R(m.input("n", 0, 3)));
    ir::Reg t1 = m.threadCreate("worker", I(0));
    m.store(flag, I(0), I(7));
    m.threadJoin(R(t1));
    m.halt();
    return pb.build();
}

/** Verdict severity for cross-checking against enumerated truth:
 *  3 crash, 2 output divergence, 1 no externally visible effect. */
int
rank(RaceClass c)
{
    switch (c) {
    case RaceClass::SpecViolated:
        return 3;
    case RaceClass::OutputDiffers:
        return 2;
    default:
        return 1;
    }
}

struct ConcreteRun
{
    rt::RunOutcome outcome = rt::RunOutcome::Running;
    std::string output;
    rt::ScheduleObservation obs;
};

ConcreteRun
runConcrete(const ir::Program &p,
            const std::vector<std::int64_t> &inputs,
            const std::vector<rt::ThreadId> &prefix)
{
    rt::ExecOptions eo;
    eo.input_mode = rt::InputMode::Concrete;
    eo.concrete_inputs = inputs;
    eo.preempt_on_memory = true;
    eo.max_steps = 100000;
    rt::Interpreter interp(p, eo);
    rt::RotatePolicy rotate;
    rt::GuidedPolicy pol(prefix, &rotate);
    interp.setPolicy(&pol);
    ConcreteRun r;
    r.outcome = interp.run();
    for (const auto &rec : interp.state().output.records)
        r.output += rec.toString() + "\n";
    r.obs = pol.takeObservation();
    return r;
}

/** DFS over the scheduler decision tree for one fixed input vector,
 *  collecting per-interleaving outputs and whether any run crashes
 *  (the same brute force as tests/explore_test.cc, plus inputs). */
void
enumerateSchedules(const ir::Program &p,
                   const std::vector<std::int64_t> &inputs,
                   std::vector<rt::ThreadId> prefix,
                   std::set<std::string> &outputs, bool &crashed,
                   int &runs)
{
    ConcreteRun r = runConcrete(p, inputs, prefix);
    runs += 1;
    ASSERT_LT(runs, 200000) << p.name;
    if (rt::isSpecViolation(r.outcome))
        crashed = true;
    else
        outputs.insert(r.output);
    for (std::size_t i = prefix.size(); i < r.obs.picks.size(); ++i) {
        for (rt::ThreadId t : r.obs.enabled(i)) {
            if (t == r.obs.picks[i])
                continue;
            std::vector<rt::ThreadId> child(
                r.obs.picks.begin(),
                r.obs.picks.begin() + static_cast<long>(i));
            child.push_back(t);
            enumerateSchedules(p, inputs, child, outputs, crashed,
                               runs);
        }
    }
}

class SymExhaustiveTest : public ::testing::Test
{
  protected:
    /**
     * Ground truth by brute force over the full input cross product
     * x every interleaving: severity 3 if any (input, schedule)
     * pair crashes, else 2 if some fixed input vector shows
     * diverging outputs across schedules, else 1.
     */
    int
    enumeratedRank(const ir::Program &p)
    {
        bool crashed = false;
        bool diverged = false;
        int runs = 0;
        std::vector<std::int64_t> inputs;
        enumerateInputs(p, 0, inputs, crashed, diverged, runs);
        EXPECT_GT(runs, 1) << p.name;
        return crashed ? 3 : diverged ? 2 : 1;
    }

    /** One symbolic classification run over the same program; the
     *  gate input is always the last declared. */
    int
    symbolicRank(const ir::Program &p)
    {
        EXPECT_FALSE(p.inputs.empty()) << p.name;
        PortendOptions opts = withSymInput(p.inputs.back().name);
        Portend tool(p, opts);
        PortendResult res = tool.run();
        EXPECT_EQ(res.reports.size(), 1u) << p.name;
        if (res.reports.empty())
            return 0;
        return rank(res.reports[0].classification.cls);
    }

    void
    crossCheck(const ir::Program &p)
    {
        EXPECT_EQ(symbolicRank(p), enumeratedRank(p)) << p.name;
    }

  private:
    void
    enumerateInputs(const ir::Program &p, std::size_t decl,
                    std::vector<std::int64_t> &inputs, bool &crashed,
                    bool &diverged, int &runs)
    {
        if (decl == p.inputs.size()) {
            std::set<std::string> outputs;
            enumerateSchedules(p, inputs, {}, outputs, crashed,
                               runs);
            diverged = diverged || outputs.size() > 1;
            return;
        }
        for (std::int64_t v = p.inputs[decl].lo;
             v <= p.inputs[decl].hi; ++v) {
            inputs.push_back(v);
            enumerateInputs(p, decl + 1, inputs, crashed, diverged,
                            runs);
            inputs.pop_back();
        }
    }
};

TEST_F(SymExhaustiveTest, GatedOutputReachesEnumeratedSeverity)
{
    crossCheck(gatedOutputMicro());
}

TEST_F(SymExhaustiveTest, GatedCrashReachesEnumeratedSeverity)
{
    crossCheck(gatedCrashMicro());
}

TEST_F(SymExhaustiveTest, RedundantRaceStaysHarmless)
{
    crossCheck(redundantMicro());
}

TEST_F(SymExhaustiveTest, ExtensionWorkloadsReachEnumeratedSeverity)
{
    // The checked-in workloads carry two decoy inputs before the
    // gate; the recursive enumerator covers all three domains.
    for (const char *wname : {"ibuf", "iguard"}) {
        workloads::Workload w = workloads::buildWorkload(wname);
        ASSERT_EQ(w.program.inputs.size(), 3u) << wname;
        ASSERT_EQ(w.program.inputs.back().name, "n") << wname;
        crossCheck(w.program);
    }
}

} // namespace
} // namespace portend::core
