/** @file Copy-on-write checkpoint and checkpoint-ladder tests:
 *  fork-then-mutate isolation (writes in a fork never bleed into the
 *  parent or siblings), ladder-resume equivalence (resuming a cached
 *  rung is byte-identical to replaying from step 0, and the ladder's
 *  end is the state a full replay reaches), the budget rule for
 *  adopting that end, and the classify-with-ladder ==
 *  classify-without contract. The whole suite runs under the TSan CI
 *  job. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "ir/builder.h"
#include "ir/program.h"
#include "output_text.h"
#include "portend/portend.h"
#include "replay/checkpoint.h"
#include "replay/replayer.h"
#include "rt/interpreter.h"
#include "rt/policy.h"
#include "support/cow.h"
#include "support/observe.h"
#include "workloads/registry.h"

namespace portend {
namespace {

using namespace portend::rt;

/** Every thread's access-counter row, in thread order. */
std::vector<std::vector<std::uint64_t>>
counterRows(const VmState &s)
{
    std::vector<std::vector<std::uint64_t>> rows;
    for (const ThreadState &t : s.threads)
        rows.emplace_back(t.counts.begin(), t.counts.end());
    return rows;
}

// ---------------------------------------------------------------
// CowVec<T> primitive.
// ---------------------------------------------------------------

TEST(CowTest, CopiesShareUntilWritten)
{
    CowVec<int> a{1, 2, 3};
    CowVec<int> b = a;
    EXPECT_TRUE(a.sharedWith(b));
    EXPECT_EQ(b, a);

    b.rw()[1] = 99; // write barrier: b clones, a untouched
    EXPECT_FALSE(a.sharedWith(b));
    EXPECT_EQ(a[1], 2);
    EXPECT_EQ(b[1], 99);
    EXPECT_EQ(b.size(), 3u);
}

TEST(CowTest, ReadsNeverUnshare)
{
    CowVec<int> a{7};
    CowVec<int> b = a;
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], 7);
    EXPECT_EQ(b.back(), 7);
    EXPECT_EQ(*b.begin(), 7);
    EXPECT_TRUE(a.sharedWith(b)); // still shared after reads
}

TEST(CowTest, UniqueWriteMutatesInPlace)
{
    CowVec<int> a{5};
    const int *payload = a.data();
    a.rw()[0] = 6; // sole owner: no clone
    EXPECT_EQ(a.data(), payload);
    EXPECT_EQ(a[0], 6);
}

// ---------------------------------------------------------------
// MemImage paging.
// ---------------------------------------------------------------

TEST(MemImageTest, ForkThenWriteIsolation)
{
    MemImage a;
    const std::size_t n = MemImage::kPageCells * 2 + 5; // 3 pages
    for (std::size_t i = 0; i < n; ++i)
        a.append(rt::Value::ofConst(static_cast<std::int64_t>(i)));

    MemImage b = a;
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(a.sharesPage(i, b));

    // Writing one cell of b unshares exactly that page.
    const std::size_t hit = MemImage::kPageCells + 3; // page 1
    b.write(hit, rt::Value::ofConst(-1));
    EXPECT_TRUE(a.sharesPage(0, b));
    EXPECT_FALSE(a.sharesPage(hit, b));
    EXPECT_TRUE(a.sharesPage(MemImage::kPageCells * 2, b));

    EXPECT_EQ(a[hit].constValue(), static_cast<std::int64_t>(hit));
    EXPECT_EQ(b[hit].constValue(), -1);
    // Unwritten cells of the unshared page kept their values.
    EXPECT_EQ(b[hit + 1].constValue(),
              static_cast<std::int64_t>(hit + 1));
}

// ---------------------------------------------------------------
// VmState fork isolation through the interpreter.
// ---------------------------------------------------------------

using ir::I;
using ir::R;
using K = sym::ExprKind;

/** Two threads bumping one global; main reads it last. */
ir::Program
counterProgram()
{
    ir::ProgramBuilder pb("cow_counter");
    ir::GlobalId g = pb.global("g");

    auto &w = pb.function("worker", 1);
    w.to(w.block("entry"));
    for (int i = 0; i < 8; ++i)
        w.store(g, I(0), R(w.bin(K::Add, R(w.load(g)), I(1))));
    w.retVoid();

    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg t1 = mn.threadCreate("worker", I(0));
    ir::Reg t2 = mn.threadCreate("worker", I(0));
    mn.threadJoin(R(t1));
    mn.threadJoin(R(t2));
    mn.output("final", R(mn.load(g)));
    mn.halt();
    return pb.build();
}

TEST(VmStateForkTest, ForkThenMutateDoesNotBleedIntoParent)
{
    ir::Program prog = counterProgram();
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    rt::Interpreter interp(prog, eo);

    // Run partway, then checkpoint: just before the first worker's
    // first write to g (its second access of the cell).
    rt::Interpreter::StopSpec stop;
    stop.before_cell.push_back({1, 0, 2});
    interp.run(stop);
    ASSERT_TRUE(interp.stopped());

    const rt::VmState parent = interp.state();
    // An eagerly materialized reference copy of the parent: if COW
    // aliasing ever leaked a write, parent and deep would diverge.
    rt::VmState deep = parent;
    deep.unshareAll();

    // Two siblings forked from the same checkpoint, run to
    // completion under different schedules.
    rt::RotatePolicy rotate;
    rt::Interpreter sib1(prog, eo);
    sib1.setState(parent);
    sib1.setPolicy(&rotate);
    EXPECT_EQ(sib1.run(), rt::RunOutcome::Exited);

    rt::Interpreter sib2(prog, eo);
    sib2.setState(parent);
    EXPECT_EQ(sib2.run(), rt::RunOutcome::Exited); // FIFO default

    // The siblings made progress...
    EXPECT_GT(sib1.state().global_step, parent.global_step);
    EXPECT_GT(sib2.state().global_step, parent.global_step);

    // ...but the parent checkpoint is bit-for-bit what it was.
    ASSERT_EQ(parent.mem.size(), deep.mem.size());
    for (std::size_t i = 0; i < parent.mem.size(); ++i)
        EXPECT_TRUE(parent.mem[i].equals(deep.mem[i])) << "cell " << i;
    ASSERT_EQ(parent.threads.size(), deep.threads.size());
    for (std::size_t t = 0; t < parent.threads.size(); ++t) {
        const auto &pt = parent.threads[t];
        const auto &dt = deep.threads[t];
        EXPECT_EQ(pt.status, dt.status) << "thread " << t;
        ASSERT_EQ(pt.stack.size(), dt.stack.size()) << "thread " << t;
        for (std::size_t f = 0; f < pt.stack.size(); ++f) {
            EXPECT_EQ(pt.stack[f].func, dt.stack[f].func);
            EXPECT_EQ(pt.stack[f].ip, dt.stack[f].ip);
        }
    }
    EXPECT_EQ(counterRows(parent), counterRows(deep));
    EXPECT_EQ(parent.global_step, deep.global_step);

    // And the siblings are isolated from each other: both finish
    // with the same deterministic result their own schedule gives,
    // unperturbed by the other's writes.
    ASSERT_EQ(sib1.state().output.size(), 1u);
    ASSERT_EQ(sib2.state().output.size(), 1u);
}

// ---------------------------------------------------------------
// Checkpoint-ladder equivalence.
// ---------------------------------------------------------------

/** Detection result of one program. */
core::DetectionResult
detectOn(const ir::Program &prog,
         const std::vector<core::SemanticPredicate> &predicates,
         core::PortendOptions &opts)
{
    opts.semantic_predicates = predicates;
    core::Portend tool(prog, opts);
    return tool.detect();
}

/** Detection result of one registry workload. */
core::DetectionResult
detectOn(const workloads::Workload &w, core::PortendOptions &opts)
{
    return detectOn(w.program, w.semantic_predicates, opts);
}

/** The ladder the scheduler builds for @p det's batch. */
replay::CheckpointLadder
batchLadder(const ir::Program &prog, const replay::ScheduleTrace &trace,
            const core::DetectionResult &det,
            const core::PortendOptions &opts)
{
    return replay::CheckpointLadder::build(
        prog, trace, replay::CheckpointLadder::targetsFor(det.clusters),
        core::RaceAnalyzer::replayOptions(opts),
        opts.semantic_predicates);
}

/** Installs a fresh process collector for one scope. */
class ScopedCollector
{
  public:
    ScopedCollector() { obs::setCollector(&col_); }
    ~ScopedCollector() { obs::setCollector(nullptr); }

    obs::MetricsShard
    shard() const
    {
        obs::MetricsShard m;
        col_.drainInto(m);
        return m;
    }

    std::uint64_t
    counter(obs::Counter c) const
    {
        return shard().counter(c);
    }

  private:
    obs::Collector col_;
};

/** Verdict, evidence and every counter of the verdict's shard. */
void
expectSameClassification(const core::Classification &a,
                         const core::Classification &b)
{
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.viol, b.viol);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.states_differ, b.states_differ);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.output_diff, b.output_diff);
    EXPECT_EQ(a.evidence_inputs, b.evidence_inputs);
    EXPECT_EQ(a.evidence_witness, b.evidence_witness);
    EXPECT_EQ(a.evidence_seed, b.evidence_seed);
    EXPECT_EQ(a.evidence_schedule, b.evidence_schedule);
    EXPECT_EQ(a.evidence_signature, b.evidence_signature);
    EXPECT_EQ(a.evidence_alternate, b.evidence_alternate);
    EXPECT_EQ(obs::metricsJson(a.metrics), obs::metricsJson(b.metrics));
}

/**
 * Classify every cluster of @p det under step budget @p max_steps
 * with and without @p ladder, expecting identical results; returns
 * what the process collector counted meanwhile (only the laddered
 * runs fork rungs or reuse the end).
 */
obs::MetricsShard
classifyBothWays(const ir::Program &prog,
                 const core::DetectionResult &det,
                 core::PortendOptions opts, std::uint64_t max_steps,
                 const replay::CheckpointLadder &ladder)
{
    SCOPED_TRACE("max_steps " + std::to_string(max_steps));
    opts.max_steps = max_steps;
    core::RaceAnalyzer analyzer(prog, opts);
    ScopedCollector col;
    for (const auto &c : det.clusters) {
        SCOPED_TRACE("cell " + std::to_string(c.representative.cell));
        expectSameClassification(
            analyzer.classify(c.representative, det.trace),
            analyzer.classify(c.representative, det.trace, &ladder));
    }
    return col.shard();
}

/** Steps the laddered runs of classifyBothWays() reused. */
std::uint64_t
reusedSteps(const ir::Program &prog, const core::DetectionResult &det,
            const core::PortendOptions &opts, std::uint64_t max_steps,
            const replay::CheckpointLadder &ladder)
{
    return classifyBothWays(prog, det, opts, max_steps, ladder)
        .counter(obs::Counter::LadderStepsReused);
}

TEST(CheckpointLadderTest, RungEqualsFromZeroReplay)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    core::PortendOptions opts;
    core::DetectionResult det = detectOn(w, opts);
    ASSERT_FALSE(det.clusters.empty());

    replay::CheckpointLadder ladder =
        batchLadder(w.program, det.trace, det, opts);
    ASSERT_GT(ladder.size(), 0u);

    for (const auto &c : det.clusters) {
        const race::RaceReport &race = c.representative;
        const replay::CheckpointLadder::Rung *rung = ladder.find(
            race.first.tid, race.cell, race.first.cell_occurrence);
        if (!rung)
            continue; // replay never reached it: nothing to compare

        // The from-0 replay every analyzer would run.
        rt::ExecOptions eo =
            core::RaceAnalyzer::replayOptions(opts);
        eo.concrete_inputs = det.trace.concreteInputs();
        rt::Interpreter interp(w.program, eo);
        rt::RotatePolicy rotate;
        replay::TracePolicy tp(det.trace, &rotate);
        interp.setPolicy(&tp);
        rt::Interpreter::StopSpec pre;
        pre.before_cell.push_back(
            {race.first.tid, race.cell, race.first.cell_occurrence});
        interp.run(pre);
        ASSERT_TRUE(interp.stopped());
        const rt::VmState &ref = interp.state();

        EXPECT_EQ(rung->state.global_step, ref.global_step);
        EXPECT_EQ(rung->state.current, ref.current);
        EXPECT_EQ(rung->state.preemption_points, ref.preemption_points);
        ASSERT_EQ(rung->state.mem.size(), ref.mem.size());
        for (std::size_t i = 0; i < ref.mem.size(); ++i) {
            EXPECT_TRUE(rung->state.mem[i].equals(ref.mem[i]))
                << "cell " << i;
        }
        EXPECT_EQ(counterRows(rung->state),
                  counterRows(ref));
        EXPECT_EQ(tests::outputText(rung->state.output),
                  tests::outputText(ref.output));
        EXPECT_EQ(rung->state.resume_in_segment,
                  ref.resume_in_segment);
    }
}

/** The ladder's end against one from-0 replay of the whole trace
 *  under the same strict TracePolicy and predicates: the stage-1
 *  primary every cluster of the batch would otherwise finish. */
void
expectEndEqualsFullReplay(const std::string &name)
{
    SCOPED_TRACE(name);
    workloads::Workload w = workloads::buildWorkload(name);
    core::PortendOptions opts;
    core::DetectionResult det = detectOn(w, opts);
    ASSERT_GE(det.clusters.size(), 2u);

    ScopedCollector col;
    replay::CheckpointLadder ladder =
        batchLadder(w.program, det.trace, det, opts);
    const replay::CheckpointLadder::End *end = ladder.end();
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(end->budget, opts.max_steps);
    EXPECT_EQ(col.counter(obs::Counter::LadderTailSteps),
              end->state.global_step - ladder.buildSteps());

    rt::ExecOptions eo = core::RaceAnalyzer::replayOptions(opts);
    eo.concrete_inputs = det.trace.concreteInputs();
    rt::Interpreter interp(w.program, eo);
    rt::RotatePolicy rotate;
    replay::TracePolicy tp(det.trace, &rotate);
    interp.setPolicy(&tp);
    rt::SemanticMonitor sem(interp, opts.semantic_predicates);
    interp.addSink(&sem);
    interp.run();
    const rt::VmState &ref = interp.state();
    const rt::VmState &got = end->state;

    EXPECT_TRUE(got.finished());
    EXPECT_EQ(got.outcome, ref.outcome);
    EXPECT_EQ(got.outcome_detail, ref.outcome_detail);
    EXPECT_EQ(got.outcome_tid, ref.outcome_tid);
    EXPECT_EQ(got.outcome_pc, ref.outcome_pc);
    EXPECT_EQ(got.global_step, ref.global_step);
    EXPECT_EQ(got.preemption_points, ref.preemption_points);
    EXPECT_EQ(got.symbolic_branches, ref.symbolic_branches);
    ASSERT_EQ(got.mem.size(), ref.mem.size());
    for (std::size_t i = 0; i < ref.mem.size(); ++i)
        EXPECT_TRUE(got.mem[i].equals(ref.mem[i])) << "cell " << i;
    EXPECT_EQ(tests::outputText(got.output),
              tests::outputText(ref.output));
    EXPECT_EQ(counterRows(got), counterRows(ref));
    ASSERT_EQ(got.threads.size(), ref.threads.size());
    for (std::size_t t = 0; t < ref.threads.size(); ++t) {
        EXPECT_EQ(got.threads[t].steps, ref.threads[t].steps)
            << "thread " << t;
        EXPECT_EQ(got.threads[t].last_step, ref.threads[t].last_step)
            << "thread " << t;
    }
    EXPECT_EQ(end->semantics.scratch, sem.snapshot().scratch);
    EXPECT_EQ(end->semantics.violation, sem.snapshot().violation);
    EXPECT_EQ(end->semantics.violation_cell,
              sem.snapshot().violation_cell);
    if (!opts.semantic_predicates.empty()) {
        EXPECT_FALSE(end->semantics.scratch.empty());
    }
}

TEST(CheckpointLadderTest, PrimaryEndEqualsFromZeroReplay)
{
    expectEndEqualsFullReplay("pbzip2");
    expectEndEqualsFullReplay("fmm"); // semantic predicates installed
}

// A one-cluster batch has nobody to share the end with: the build
// stops at its rung.
TEST(CheckpointLadderTest, OneClusterBatchSkipsTheTail)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    core::PortendOptions opts;
    core::DetectionResult det = detectOn(w, opts);
    ASSERT_FALSE(det.clusters.empty());
    const race::RaceReport &race = det.clusters[0].representative;

    ScopedCollector col;
    replay::CheckpointLadder ladder = replay::CheckpointLadder::build(
        w.program, det.trace,
        {replay::CheckpointLadder::targetFor(race)},
        core::RaceAnalyzer::replayOptions(opts),
        opts.semantic_predicates);
    ASSERT_EQ(ladder.size(), 1u);
    EXPECT_EQ(ladder.end(), nullptr);
    EXPECT_EQ(ladder.buildSteps(),
              ladder.find(race.first.tid, race.cell,
                          race.first.cell_occurrence)
                  ->state.global_step);
    EXPECT_EQ(col.counter(obs::Counter::InterpSteps), ladder.buildSteps());
    EXPECT_EQ(col.counter(obs::Counter::LadderTailSteps), 0u);
}

// The headline contract of the ladder: classification with it is
// byte-identical to classification without it — verdict, detail,
// evidence, and every counter — across every registry workload
// and the first eight generated programs of fuzz seed 42, and the
// suite does adopt the shared end.
TEST(CheckpointLadderTest, ClassifyWithLadderMatchesWithout)
{
    struct Subject
    {
        ir::Program program;
        std::vector<core::SemanticPredicate> predicates;
    };
    std::vector<Subject> subjects;
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        subjects.push_back({std::move(w.program),
                            std::move(w.semantic_predicates)});
    }
    for (std::uint64_t i = 0; i < 8; ++i) {
        fuzz::GeneratedProgram gp =
            fuzz::generateProgram(42, i, fuzz::GeneratorOptions{});
        ASSERT_TRUE(gp.verify_errors.empty()) << gp.program.name;
        subjects.push_back({std::move(gp.program), {}});
    }

    std::uint64_t reused = 0;
    for (const Subject &s : subjects) {
        SCOPED_TRACE(s.program.name);
        core::PortendOptions opts;
        core::DetectionResult det = detectOn(s.program, s.predicates, opts);
        EXPECT_FALSE(det.clusters.empty());
        reused += reusedSteps(s.program, det, opts, opts.max_steps,
                              batchLadder(s.program, det.trace, det, opts));
    }
    EXPECT_GT(reused, 0u);
}

// Budget edges of a primary whose end is reached inside an
// instruction (main returns): the last budget check happened one
// step before the end, so a budget equal to the end's step adopts
// and one step less must run the tail and time out on its own.
TEST(CheckpointLadderTest, EndAdoptedOnlyWithinTheAnalyzerBudget)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    core::PortendOptions opts;
    core::DetectionResult det = detectOn(w, opts);
    replay::CheckpointLadder ladder =
        batchLadder(w.program, det.trace, det, opts);
    const replay::CheckpointLadder::End *end = ladder.end();
    ASSERT_NE(end, nullptr);
    ASSERT_EQ(end->state.outcome, rt::RunOutcome::Exited);
    ASSERT_GE(end->state.outcome_tid, 0);
    const std::uint64_t at = end->state.global_step;

    EXPECT_EQ(reusedSteps(w.program, det, opts, at - 1, ladder), 0u);
    EXPECT_GT(reusedSteps(w.program, det, opts, at, ladder), 0u);
}

/**
 * Two workers race on x and on y (two clusters); after joining them
 * main either spins forever on a flag nobody sets, or waits on a
 * condition nobody signals (a deadlock the scheduler finds).
 */
ir::Program
twoRaceProgram(bool spin)
{
    ir::ProgramBuilder pb(spin ? "end_spin" : "end_deadlock");
    ir::GlobalId x = pb.global("x");
    ir::GlobalId y = pb.global("y");
    ir::GlobalId flag = pb.global("flag");
    ir::SyncId m = pb.mutex("m");
    ir::SyncId cv = pb.cond("cv");

    auto &wk = pb.function("worker", 1);
    wk.to(wk.block("entry"));
    wk.store(x, I(0), R(wk.param(0)));
    wk.store(y, I(0), R(wk.param(0)));
    wk.retVoid();

    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg t1 = mn.threadCreate("worker", I(1));
    ir::Reg t2 = mn.threadCreate("worker", I(2));
    mn.threadJoin(R(t1));
    mn.threadJoin(R(t2));
    if (spin) {
        ir::BlockId loop = mn.block("loop");
        ir::BlockId done = mn.block("done");
        mn.jmp(loop);
        mn.to(loop);
        mn.br(R(mn.load(flag)), done, loop);
        mn.to(done);
    } else {
        mn.lock(m);
        mn.condWait(cv, m);
    }
    mn.halt();
    return pb.build();
}

// A timed-out end is where the ladder's budget cut the run: only an
// analyzer under that same budget may adopt it.
TEST(CheckpointLadderTest, TimedOutEndAdoptedOnlyAtTheLadderBudget)
{
    ir::Program prog = twoRaceProgram(true);
    core::PortendOptions opts;
    opts.max_steps = 5000;
    core::Portend tool(prog, opts);
    core::DetectionResult det = tool.detect();
    ASSERT_GE(det.clusters.size(), 2u);
    replay::CheckpointLadder ladder =
        batchLadder(prog, det.trace, det, opts);
    const replay::CheckpointLadder::End *end = ladder.end();
    ASSERT_NE(end, nullptr);
    ASSERT_EQ(end->state.outcome, rt::RunOutcome::TimedOut);

    const std::uint64_t b = opts.max_steps;
    EXPECT_GT(reusedSteps(prog, det, opts, b, ladder), 0u);
    EXPECT_EQ(reusedSteps(prog, det, opts, b - 1, ladder), 0u);
    EXPECT_EQ(reusedSteps(prog, det, opts, b + 1, ladder), 0u);
}

// An end the scheduler found (all live threads blocked) was checked
// against the budget at its own step: a budget equal to that step
// times out before finding it, so adoption needs one step more.
TEST(CheckpointLadderTest, SchedulerFoundEndNeedsOneStepOfHeadroom)
{
    ir::Program prog = twoRaceProgram(false);
    core::PortendOptions opts;
    core::Portend tool(prog, opts);
    core::DetectionResult det = tool.detect();
    ASSERT_GE(det.clusters.size(), 2u);
    replay::CheckpointLadder ladder =
        batchLadder(prog, det.trace, det, opts);
    const replay::CheckpointLadder::End *end = ladder.end();
    ASSERT_NE(end, nullptr);
    ASSERT_EQ(end->state.outcome, rt::RunOutcome::Deadlock);
    ASSERT_LT(end->state.outcome_tid, 0);
    const std::uint64_t at = end->state.global_step;

    EXPECT_EQ(reusedSteps(prog, det, opts, at, ladder), 0u);
    EXPECT_GT(reusedSteps(prog, det, opts, at + 1, ladder), 0u);
}

// A ladder built over different inputs must be ignored, not used:
// neither its rungs nor its end.
TEST(CheckpointLadderTest, MismatchedInputsFallBackToReplay)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    core::PortendOptions opts;
    core::DetectionResult det = detectOn(w, opts);
    ASSERT_GE(det.clusters.size(), 2u);

    replay::ScheduleTrace skewed = det.trace;
    for (auto &in : skewed.inputs) {
        if (!in.symbolic)
            in.value += 1;
    }
    replay::CheckpointLadder skewed_ladder =
        batchLadder(w.program, skewed, det, opts);
    ASSERT_NE(skewed_ladder.end(), nullptr);

    // Stage 1 replays the trace's own inputs, so no primary may adopt
    // the skewed end. (A stage-2 path whose concretized inputs happen
    // to equal the skewed ones may fork a rung: that rung is valid.)
    EXPECT_EQ(reusedSteps(w.program, det, opts, opts.max_steps,
                          skewed_ladder),
              0u);
}

} // namespace
} // namespace portend
