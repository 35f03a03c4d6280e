/**
 * @file
 * Differential tests of exact loop detection.
 *
 * Every case runs twice: once with the real consumers, and once as a
 * reference whose policy sits behind a forwarding wrapper that does
 * not override SchedulePolicy::loopKey — so the reference can never
 * vouch and runs every step. Skipping proven cycles must leave the
 * whole end state, and every registry counter apart from the two
 * that describe the skip, exactly as the reference computed them.
 */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "replay/replayer.h"
#include "rt/interpreter.h"
#include "rt/semantics.h"
#include "support/observe.h"

namespace portend::rt {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

/** Forwards to @p inner but keeps the default loop key: no vouching,
 *  so a run under it is never shortened. */
class Opaque : public SchedulePolicy
{
  public:
    explicit Opaque(SchedulePolicy &inner) : inner(inner) {}

    ThreadId
    pick(const VmState &state,
         const std::vector<ThreadId> &runnable) override
    {
        return inner.pick(state, runnable);
    }

    void onEvent(const Event &ev) override { inner.onEvent(ev); }

  private:
    SchedulePolicy &inner;
};

/** @p real for the run under test, its @p wrap for the reference. */
SchedulePolicy *
policyFor(bool opaque, SchedulePolicy &real, Opaque &wrap)
{
    return opaque ? static_cast<SchedulePolicy *>(&wrap) : &real;
}

/** Registry view of the runs made while it is alive. */
class Recorded
{
  public:
    Recorded() { obs::setCollector(&col); }
    ~Recorded() { obs::setCollector(nullptr); }

    obs::MetricsShard
    shard() const
    {
        obs::MetricsShard s;
        col.drainInto(s);
        return s;
    }

  private:
    obs::Collector col;
};

void
expectSameState(const Interpreter &got, const Interpreter &ref)
{
    const VmState &a = got.state();
    const VmState &b = ref.state();
    EXPECT_EQ(got.stopped(), ref.stopped());
    EXPECT_EQ(got.firedCellStops(), ref.firedCellStops());
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.outcome_tid, b.outcome_tid);
    EXPECT_EQ(a.outcome_pc, b.outcome_pc);
    EXPECT_EQ(a.outcome_detail, b.outcome_detail);
    EXPECT_EQ(a.global_step, b.global_step);
    EXPECT_EQ(a.virtual_time, b.virtual_time);
    EXPECT_EQ(a.current, b.current);
    EXPECT_EQ(a.preemption_points, b.preemption_points);
    EXPECT_EQ(a.symbolic_branches, b.symbolic_branches);
    // The only documented exception: the snapshots share pages with
    // the live image, so its writes may clone more of them.
    EXPECT_GE(a.mem.unsharedCount(), b.mem.unsharedCount());

    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        const ThreadState &x = a.threads[t];
        const ThreadState &y = b.threads[t];
        EXPECT_EQ(x.status, y.status) << "thread " << t;
        EXPECT_EQ(x.steps, y.steps) << "thread " << t;
        EXPECT_EQ(x.last_step, y.last_step) << "thread " << t;
        EXPECT_TRUE(x.recent_reads == y.recent_reads) << "thread " << t;
        EXPECT_EQ(x.stack, y.stack) << "thread " << t;
        EXPECT_EQ(x.counts, y.counts) << "thread " << t;
    }
    ASSERT_EQ(a.mem.size(), b.mem.size());
    for (std::size_t i = 0; i < a.mem.size(); ++i)
        EXPECT_TRUE(a.mem[i].equals(b.mem[i])) << "cell " << i;
    ASSERT_EQ(a.output.size(), b.output.size());
    for (std::size_t i = 0; i < a.output.size(); ++i) {
        EXPECT_EQ(a.output.records[i].toString(),
                  b.output.records[i].toString());
    }
}

/** Every registry metric agrees apart from the skip's own counters. */
void
expectSameMetrics(const obs::MetricsShard &got,
                  const obs::MetricsShard &ref)
{
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
        const auto c = static_cast<obs::Counter>(i);
        if (c == obs::Counter::InterpCyclesDetected ||
            c == obs::Counter::InterpStepsSkipped) {
            continue;
        }
        EXPECT_EQ(got.counter(c), ref.counter(c)) << obs::counterName(c);
    }
    for (std::size_t i = 0; i < obs::kNumHists; ++i) {
        const auto h = static_cast<obs::Hist>(i);
        EXPECT_EQ(got.histCount(h), ref.histCount(h)) << obs::histName(h);
        EXPECT_EQ(got.histSum(h), ref.histSum(h)) << obs::histName(h);
    }
    EXPECT_EQ(ref.counter(obs::Counter::InterpCyclesDetected), 0u);
    EXPECT_EQ(ref.counter(obs::Counter::InterpStepsSkipped), 0u);
}

/**
 * A writer publishes `data` then sets `flag`; a spinner waits on
 * `flag`, then reads `data` (cells: data 0, flag 1).
 */
ir::Program
spinFlagProgram()
{
    ir::ProgramBuilder pb("spin_flag");
    ir::GlobalId data = pb.global("data");
    ir::GlobalId flag = pb.global("flag");

    auto &w = pb.function("writer", 1);
    w.to(w.block("entry"));
    w.store(data, I(0), I(42));
    w.store(flag, I(0), I(1));
    w.retVoid();

    auto &s = pb.function("spinner", 1);
    ir::BlockId spin = s.block("spin");
    ir::BlockId done = s.block("done");
    s.to(spin);
    s.br(R(s.load(flag)), done, spin);
    s.to(done);
    s.output("saw", R(s.load(data)));
    s.retVoid();

    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    ir::Reg t1 = m.threadCreate("writer", I(0));
    ir::Reg t2 = m.threadCreate("spinner", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

/**
 * Like spinFlagProgram, but nobody sets `flag`: the spinner reads
 * `data` once and `flag` kSpinReads times per outer iteration, so
 * `data`'s count grows inside a periodic loop, and the writer, once
 * past its store, spins on `never` (cells: data 0, flag 1, never 2).
 */
constexpr int kSpinReads = 8;

ir::Program
countingSpinProgram()
{
    ir::ProgramBuilder pb("counting_spin");
    ir::GlobalId data = pb.global("data");
    ir::GlobalId flag = pb.global("flag");
    ir::GlobalId never = pb.global("never");

    auto &w = pb.function("writer", 1);
    ir::BlockId we = w.block("entry");
    ir::BlockId wspin = w.block("spin");
    ir::BlockId wdone = w.block("done");
    w.to(we);
    w.store(data, I(0), I(42));
    w.jmp(wspin);
    w.to(wspin);
    w.br(R(w.load(never)), wdone, wspin);
    w.to(wdone);
    w.retVoid();

    auto &s = pb.function("spinner", 1);
    ir::BlockId outer = s.block("outer");
    ir::BlockId inner = s.block("inner");
    ir::BlockId after = s.block("after");
    ir::BlockId done = s.block("done");
    s.to(outer);
    s.load(data);
    ir::Reg i = s.iconst(0);
    s.jmp(inner);
    s.to(inner);
    ir::Reg f = s.load(flag);
    s.binInto(i, K::Add, R(i), I(1));
    s.br(R(f), done, after);
    s.to(after);
    s.br(R(s.bin(K::Slt, R(i), I(kSpinReads))), inner, outer);
    s.to(done);
    s.retVoid();

    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    ir::Reg t1 = m.threadCreate("writer", I(0));
    ir::Reg t2 = m.threadCreate("spinner", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

ExecOptions
options(std::uint64_t max_steps)
{
    ExecOptions eo;
    eo.preempt_on_memory = true;
    eo.max_steps = max_steps;
    return eo;
}

/** The racing pair (writer's write of `data`, spinner's read). */
race::RaceReport
dataRace(std::uint64_t second_occurrence)
{
    race::RaceReport race;
    race.cell = 0;
    race.first.tid = 1;
    race.first.is_write = true;
    race.first.cell_occurrence = 1;
    race.second.tid = 2;
    race.second.is_write = false;
    race.second.cell_occurrence = second_occurrence;
    return race;
}

/** The pre-race checkpoint: stopped before the writer's store. */
VmState
preRace(const ir::Program &prog)
{
    Interpreter interp(prog, options(100000));
    Interpreter::StopSpec pre;
    pre.before_cell.push_back({1, 0, 1});
    EXPECT_EQ(interp.run(pre), RunOutcome::Running);
    VmState s = interp.state();
    // The alternate starts with a fresh decision (as the analyzer's).
    s.resume_in_segment = false;
    return s;
}

/** Run @p run on a fresh interpreter twice — real consumers, then
 *  the opaque reference — and compare end states and metrics.
 *  Returns the steps the real run skipped. */
template <typename Run>
std::uint64_t
differential(const ir::Program &prog, std::uint64_t max_steps, Run run)
{
    Interpreter got(prog, options(max_steps));
    Interpreter ref(prog, options(max_steps));
    obs::MetricsShard got_m, ref_m;
    {
        Recorded rec;
        run(got, false);
        got_m = rec.shard();
    }
    {
        Recorded rec;
        run(ref, true);
        ref_m = rec.shard();
    }
    expectSameState(got, ref);
    expectSameMetrics(got_m, ref_m);
    EXPECT_LE(got_m.counter(obs::Counter::InterpCyclesDetected),
              got_m.counter(obs::Counter::InterpTimeouts));
    return got_m.counter(obs::Counter::InterpStepsSkipped);
}

// (a) The writer is held before publishing; the spinner's one-load
// loop is a cycle of one decision, under the analyzer's full
// consumer set (predicate-free monitor, racing-pair stop).
TEST(LoopDetectionTest, HeldWriterSpinIsOneDecisionCycle)
{
    const ir::Program prog = spinFlagProgram();
    const VmState pre = preRace(prog);
    const race::RaceReport race = dataRace(1);
    const std::vector<SemanticPredicate> no_preds;
    const std::uint64_t skipped =
        differential(prog, 20000, [&](Interpreter &in, bool opaque) {
            in.setState(pre);
            RotatePolicy rotate;
            replay::AlternatePolicy alt(race, &rotate);
            Opaque wrap(alt);
            in.setPolicy(policyFor(opaque, alt, wrap));
            SemanticMonitor sem(in, no_preds);
            in.addSink(&sem);
            Interpreter::StopSpec spec;
            spec.after_pair = {race.cell, {2, false}, {1, true}};
            EXPECT_EQ(in.run(spec), RunOutcome::TimedOut);
            EXPECT_FALSE(alt.enforced());
        });
    EXPECT_GT(skipped, 10000u);
}

/** Two threads spin on flags nobody sets, two loads an iteration. */
ir::Program
twoSpinnersProgram()
{
    ir::ProgramBuilder pb("two_spinners");
    ir::GlobalId fa = pb.global("fa");
    ir::GlobalId fb = pb.global("fb");
    ir::GlobalId tick = pb.global("tick");
    for (const char *name : {"spin_a", "spin_b"}) {
        auto &s = pb.function(name, 1);
        ir::BlockId spin = s.block("spin");
        ir::BlockId done = s.block("done");
        s.to(spin);
        ir::Reg t = s.load(tick);
        ir::Reg v = s.load(name[5] == 'a' ? fa : fb);
        s.br(R(s.bin(K::Add, R(v), R(t))), done, spin);
        s.to(done);
        s.retVoid();
    }
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    ir::Reg t1 = m.threadCreate("spin_a", I(0));
    ir::Reg t2 = m.threadCreate("spin_b", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

// (b) Rotation between two spinners: a cycle of several decisions.
TEST(LoopDetectionTest, TwoSpinnersUnderRotationCycle)
{
    const ir::Program prog = twoSpinnersProgram();
    const std::uint64_t skipped =
        differential(prog, 30000, [](Interpreter &in, bool opaque) {
            RotatePolicy rotate;
            Opaque wrap(rotate);
            in.setPolicy(policyFor(opaque, rotate, wrap));
            EXPECT_EQ(in.run(), RunOutcome::TimedOut);
        });
    EXPECT_GT(skipped, 20000u);
}

// (c) Sweep the budget across more than a whole cycle: one of these
// budgets falls exactly on a cycle boundary, where skipping one
// cycle too many would take one extra scheduling decision.
TEST(LoopDetectionTest, BudgetOnCycleBoundaryMatches)
{
    const ir::Program prog = twoSpinnersProgram();
    for (std::uint64_t budget = 5000; budget < 5024; ++budget) {
        SCOPED_TRACE("max_steps " + std::to_string(budget));
        const std::uint64_t skipped = differential(
            prog, budget, [](Interpreter &in, bool opaque) {
                RotatePolicy rotate;
                Opaque wrap(rotate);
                in.setPolicy(policyFor(opaque, rotate, wrap));
                EXPECT_EQ(in.run(), RunOutcome::TimedOut);
            });
        EXPECT_GT(skipped, 0u);
    }
}

/**
 * The occurrence (d) and (e) wait for. It lies well past the point
 * where the loops below turn periodic — the warm-up decisions plus a
 * full recent-reads ring — so a detector that ignored it would skip
 * past it.
 */
constexpr std::uint64_t kLateAccess = 30;

// (d) A stop point inside a periodic loop keys the run: it must stop
// exactly at the awaited access, not skip past it; the resumed run
// then skips.
TEST(LoopDetectionTest, CellStopInsideLoopFires)
{
    const ir::Program prog = countingSpinProgram();
    const std::uint64_t skipped =
        differential(prog, 40000, [&](Interpreter &in, bool opaque) {
            RotatePolicy rotate;
            Opaque wrap(rotate);
            in.setPolicy(policyFor(opaque, rotate, wrap));
            Interpreter::StopSpec stop;
            stop.before_cell.push_back({2, 0, kLateAccess});
            EXPECT_EQ(in.run(stop), RunOutcome::Running);
            ASSERT_TRUE(in.stopped());
            EXPECT_EQ(in.state().cellAccessCount(2, 0), kLateAccess - 1);
            EXPECT_EQ(in.run(), RunOutcome::TimedOut);
        });
    EXPECT_GT(skipped, 20000u);
}

// (e) The hold ends at the second accessor's awaited access inside
// the loop; both threads then spin forever and that cycle is skipped.
TEST(LoopDetectionTest, ReleaseInsideLoopHappensOnTime)
{
    const ir::Program prog = countingSpinProgram();
    const VmState pre = preRace(prog);
    const race::RaceReport race = dataRace(kLateAccess);
    const std::uint64_t skipped =
        differential(prog, 40000, [&](Interpreter &in, bool opaque) {
            in.setState(pre);
            RotatePolicy rotate;
            replay::AlternatePolicy alt(race, &rotate);
            Opaque wrap(alt);
            in.setPolicy(policyFor(opaque, alt, wrap));
            EXPECT_EQ(in.run(), RunOutcome::TimedOut);
            EXPECT_TRUE(alt.enforced());
            EXPECT_EQ(in.state().mem[0].constValue(), 42);
        });
    EXPECT_GT(skipped, 20000u);
}

/**
 * Two writers store 1 to `c` forever (cells: c 0, d 1). Writer A
 * first reads `d` @p prefix times; @p lead extra reads by main shift
 * the decision at which A enters its loop by one.
 */
ir::Program
lateWriterProgram(int prefix, int lead)
{
    ir::ProgramBuilder pb("late_writer");
    ir::GlobalId c = pb.global("c");
    ir::GlobalId d = pb.global("d");

    auto &a = pb.function("writer_a", 1);
    ir::BlockId ae = a.block("entry");
    ir::BlockId apre = a.block("pre");
    ir::BlockId aloop = a.block("loop");
    a.to(ae);
    ir::Reg i = a.iconst(0);
    a.jmp(apre);
    a.to(apre);
    a.load(d);
    a.binInto(i, K::Add, R(i), I(1));
    a.br(R(a.bin(K::Slt, R(i), I(prefix))), apre, aloop);
    a.to(aloop);
    a.store(c, I(0), I(1));
    a.jmp(aloop);

    auto &b = pb.function("writer_b", 1);
    ir::BlockId bloop = b.block("loop");
    b.to(bloop);
    b.store(c, I(0), I(1));
    b.jmp(bloop);

    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    for (int k = 0; k < lead; ++k)
        m.load(d);
    ir::Reg t1 = m.threadCreate("writer_a", I(0));
    m.threadCreate("writer_b", I(0));
    m.threadJoin(R(t1));
    m.halt();
    return pb.build();
}

// The racing-pair stop's stage keys the run: once A's writes begin,
// the state repeats at once, and only the stage tells the decision
// before A's first write from the one after it. The sweep moves
// that first write across Brent's snapshot points, so a detector
// ignoring the stage would, for some prefix, skip past the stop.
TEST(LoopDetectionTest, PairStopInsideLoopFires)
{
    std::uint64_t skipped = 0;
    for (int lead = 0; lead < 2; ++lead) {
        for (int prefix = 16; prefix < 64; ++prefix) {
            SCOPED_TRACE("lead " + std::to_string(lead) + " prefix " +
                         std::to_string(prefix));
            const ir::Program prog = lateWriterProgram(prefix, lead);
            skipped += differential(
                prog, 5000, [&](Interpreter &in, bool opaque) {
                    RotatePolicy rotate;
                    Opaque wrap(rotate);
                    in.setPolicy(policyFor(opaque, rotate, wrap));
                    Interpreter::StopSpec stop;
                    stop.after_pair = {0, {1, true}, {2, true}};
                    EXPECT_EQ(in.run(stop), RunOutcome::Running);
                    ASSERT_TRUE(in.stopped());
                    EXPECT_EQ(in.state().cellAccessCount(1, 0), 1u);
                    EXPECT_EQ(in.run(), RunOutcome::TimedOut);
                });
        }
    }
    EXPECT_GT(skipped, 0u);
}

// (f) Sleep inside the loop moves virtual_time, a counter the skip
// must advance.
TEST(LoopDetectionTest, SleepingLoopAdvancesVirtualTime)
{
    ir::ProgramBuilder pb("sleepy");
    ir::GlobalId flag = pb.global("flag");
    auto &s = pb.function("sleeper", 1);
    ir::BlockId spin = s.block("spin");
    ir::BlockId done = s.block("done");
    s.to(spin);
    s.sleep(I(3));
    s.br(R(s.load(flag)), done, spin);
    s.to(done);
    s.retVoid();
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    m.threadJoin(R(m.threadCreate("sleeper", I(0))));
    m.halt();
    const ir::Program prog = pb.build();

    std::int64_t vt = 0;
    const std::uint64_t skipped =
        differential(prog, 20000, [&](Interpreter &in, bool opaque) {
            RotatePolicy rotate;
            Opaque wrap(rotate);
            in.setPolicy(policyFor(opaque, rotate, wrap));
            EXPECT_EQ(in.run(), RunOutcome::TimedOut);
            vt = in.state().virtual_time;
        });
    EXPECT_GT(skipped, 10000u);
    EXPECT_GT(vt, 15000);
}

// (g) GuidedPolicy keeps the default key: the run from (a), with the
// holding policy behind a GuidedPolicy, is never shortened.
TEST(LoopDetectionTest, GuidedRunIsNeverShortened)
{
    const ir::Program prog = spinFlagProgram();
    const VmState pre = preRace(prog);
    Interpreter in(prog, options(20000));
    in.setState(pre);
    RotatePolicy rotate;
    replay::AlternatePolicy alt(dataRace(1), &rotate);
    GuidedPolicy guided({}, &alt);
    Recorded rec;
    in.setPolicy(&guided);
    EXPECT_EQ(in.run(), RunOutcome::TimedOut);
    const obs::MetricsShard m = rec.shard();
    EXPECT_EQ(m.counter(obs::Counter::InterpCyclesDetected), 0u);
    EXPECT_EQ(m.counter(obs::Counter::InterpStepsSkipped), 0u);
    EXPECT_EQ(m.counter(obs::Counter::InterpTimeouts), 1u);
    EXPECT_EQ(m.counter(obs::Counter::InterpSteps),
              20000u - pre.global_step);
}

} // namespace
} // namespace portend::rt
