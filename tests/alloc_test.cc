/**
 * @file
 * The interpreter's allocation contract, counted.
 *
 * A run may allocate for copy-on-write clones on the first write
 * after a fork, thread creation, outputs, environment reads and
 * symbolic expressions, but never per event or per scheduling
 * decision (docs/ARCHITECTURE.md, "Interpreter"). This binary
 * replaces the global operator new/delete with versions that count
 * the calling thread's allocations inside allocationsOf(), and
 * checks the contract where it is easiest to break: the event
 * stream, the scheduler loop, the per-thread read rings and the
 * start-state constructor.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "race/report.h"
#include "replay/replayer.h"
#include "rt/interpreter.h"
#include "rt/policy.h"

namespace {

thread_local bool counting = false;
thread_local std::uint64_t allocations = 0;

/** Allocations @p f makes on this thread. */
template <typename F>
std::uint64_t
allocationsOf(F &&f)
{
    allocations = 0;
    counting = true;
    f();
    counting = false;
    return allocations;
}

} // namespace

void *
operator new(std::size_t n)
{
    if (counting)
        allocations += 1;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace portend::rt {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

/**
 * Two workers each run @p iters iterations of: load `x`, store it
 * back incremented, store the iteration count to their own cell
 * (cells: x 0, w0_count 1, w1_count 2).
 */
ir::Program
loopProgram(int iters)
{
    ir::ProgramBuilder pb("alloc_loop_" + std::to_string(iters));
    ir::GlobalId x = pb.global("x");
    std::vector<std::string> names;
    for (int w = 0; w < 2; ++w) {
        const std::string fn = "w" + std::to_string(w);
        names.push_back(fn);
        ir::GlobalId mine = pb.global(fn + "_count");
        auto &f = pb.function(fn, 1);
        ir::BlockId entry = f.block("entry");
        ir::BlockId body = f.block("body");
        ir::BlockId done = f.block("done");
        f.to(entry);
        ir::Reg i = f.iconst(0);
        f.jmp(body);
        f.to(body);
        f.store(x, I(0), R(f.bin(K::Add, R(f.load(x)), I(1))));
        f.binInto(i, K::Add, R(i), I(1));
        f.store(mine, I(0), R(i));
        f.br(R(f.bin(K::Slt, R(i), I(iters))), body, done);
        f.to(done);
        f.retVoid();
    }
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    std::vector<ir::Reg> tids;
    for (const auto &n : names)
        tids.push_back(m.threadCreate(n, I(0)));
    for (ir::Reg t : tids)
        m.threadJoin(R(t));
    m.halt();
    return pb.build();
}

/** Counts events; cannot vouch for loop detection (the default). */
class CountingSink : public EventSink
{
  public:
    void onEvent(const Event &) override { events += 1; }

    std::uint64_t events = 0;
};

ExecOptions
everyAccessDecides()
{
    ExecOptions eo;
    eo.preempt_on_memory = true;
    return eo;
}

/** A state stopped before worker 1's 300th access to `x`, its 150th
 *  iteration: both workers' read rings have wrapped. */
VmState
midRun(const ir::Program &p)
{
    Interpreter interp(p, everyAccessDecides());
    RotatePolicy rotate;
    interp.setPolicy(&rotate);
    Interpreter::StopSpec stop;
    stop.before_cell.push_back({2, 0, 300});
    interp.run(stop);
    EXPECT_TRUE(interp.stopped());
    return interp.state();
}

// A run with an event sink and a schedule policy attached allocates
// the same number of times however long it runs: nothing per event,
// per scheduling decision or per load.
TEST(AllocationTest, RunAllocationsDoNotGrowWithLength)
{
    const ir::Program shorter = loopProgram(200);
    const ir::Program longer = loopProgram(400);
    // Decode outside the windows: the decode is cached per program.
    decodeProgram(shorter);
    decodeProgram(longer);

    std::uint64_t events[2] = {0, 0};
    std::uint64_t decisions[2] = {0, 0};
    std::uint64_t counts[2] = {0, 0};
    const ir::Program *progs[2] = {&shorter, &longer};
    for (int i = 0; i < 2; ++i) {
        counts[i] = allocationsOf([&] {
            Interpreter interp(*progs[i], everyAccessDecides());
            RotatePolicy rotate;
            CountingSink sink;
            interp.setPolicy(&rotate);
            interp.addSink(&sink);
            EXPECT_EQ(interp.run(), RunOutcome::Exited);
            events[i] = sink.events;
            decisions[i] = interp.state().stats.preemption_points;
        });
    }
    // The longer run really is longer, by every access.
    EXPECT_GE(events[1], events[0] + 2 * 3 * 200);
    EXPECT_GE(decisions[1], decisions[0] + 2 * 3 * 200);
    EXPECT_EQ(counts[0], counts[1])
        << "events " << events[0] << " vs " << events[1];
}

// Copying a state copies each thread's read ring in place: full
// rings cost the copy nothing over empty ones.
TEST(AllocationTest, StateCopyAllocatesNothingForReadRings)
{
    const ir::Program p = loopProgram(200);
    VmState full = midRun(p);
    int reads = 0;
    for (const ThreadState &t : full.threads)
        reads += t.recent_reads.size();
    ASSERT_GE(reads, 2 * kSpinWindow);

    VmState empty = full;
    for (ThreadState &t : empty.threads)
        t.recent_reads = ReadRing{};

    const std::uint64_t with_reads =
        allocationsOf([&] { VmState copy = full; });
    const std::uint64_t without =
        allocationsOf([&] { VmState copy = empty; });
    EXPECT_EQ(with_reads, without);
}

// An interpreter built on its starting state pays one copy of that
// state, not a copy of the pristine state it then overwrites.
TEST(AllocationTest, InterpreterOnAStateCostsOneCopy)
{
    const ir::Program p = loopProgram(200);
    const VmState mid = midRun(p);

    const std::uint64_t copy = allocationsOf([&] { VmState c = mid; });
    const std::uint64_t built = allocationsOf(
        [&] { Interpreter interp(p, ExecOptions{}, mid); });
    const std::uint64_t reset_then_set = allocationsOf([&] {
        Interpreter interp(p, ExecOptions{});
        interp.setState(mid);
    });
    EXPECT_GT(copy, 0u);
    EXPECT_LE(built, copy);
    EXPECT_LT(built, reset_then_set);
}

// The alternate policy's hold phase picks without building a list.
TEST(AllocationTest, AlternatePickAllocatesNothing)
{
    race::RaceReport race;
    race.cell = 0;
    race.first.tid = 1;
    race.second.tid = 2;
    rt::RotatePolicy post;
    replay::AlternatePolicy alt(race, &post);
    VmState st;
    const std::vector<ThreadId> runnable = {0, 1, 2};
    const std::vector<ThreadId> without_second = {0, 1};
    int picked_second = 0;
    const std::uint64_t n = allocationsOf([&] {
        for (int i = 0; i < 100; ++i) {
            picked_second += alt.pick(st, runnable) == 2;
            EXPECT_EQ(alt.pick(st, without_second), 0);
        }
    });
    EXPECT_EQ(picked_second, 100);
    EXPECT_EQ(n, 0u);
}

} // namespace
} // namespace portend::rt
