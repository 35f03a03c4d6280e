/**
 * @file
 * The interpreter's allocation contract, counted.
 *
 * A run may allocate for copy-on-write clones on the first write
 * after a fork, thread creation, outputs, environment reads and
 * symbolic expressions, but never per event or per scheduling
 * decision (docs/ARCHITECTURE.md, "The interpreter hot path"). This
 * binary replaces the global operator new/delete with versions that
 * count the calling thread's allocations inside allocationsOf(), and
 * checks the contract where it is easiest to break: the event
 * stream, the scheduler loop, the per-thread read rings, the
 * start-state constructor, the price of a copy-on-write clone and of
 * an expression node, output-log copies and the happens-before
 * detector's clock snapshots.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "race/hb.h"
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

// Kept out of line: inlined next to a call of the replaced operator
// new, GCC would take the free() for a mismatched deallocation.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
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
            decisions[i] = interp.state().preemption_points;
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

// Unsharing a shared payload costs one allocation, whatever it
// holds: the clone's single block carries the count, the size and
// the elements. Once unshared, writes go in place.
TEST(AllocationTest, UnsharingAPayloadIsOneAllocation)
{
    const ir::Program p = loopProgram(200);
    const VmState mid = midRun(p);
    VmState fork = mid;
    ThreadState &t = fork.threads[1];
    ASSERT_FALSE(t.stack.empty());
    ASSERT_FALSE(t.regs.empty());
    ASSERT_FALSE(t.counts.empty());
    ASSERT_TRUE(t.stack.sharedWith(mid.threads[1].stack));
    const std::int64_t x = mid.mem[0].constValue();

    EXPECT_EQ(allocationsOf(
                  [&] { fork.mem.write(0, Value::ofConst(-1)); }),
              1u);
    EXPECT_EQ(allocationsOf([&] { t.stack.rw().back().ip += 0; }), 1u);
    EXPECT_EQ(allocationsOf([&] { t.regs.rw()[0] = Value::ofConst(3); }),
              1u);
    EXPECT_EQ(allocationsOf([&] { t.counts.rw()[0] += 1; }), 1u);
    EXPECT_EQ(allocationsOf([&] {
                  fork.mem.write(1, Value::ofConst(-2));
                  t.stack.rw();
                  t.regs.rw();
                  t.counts.rw();
              }),
              0u);
    // The checkpoint kept its own payloads.
    EXPECT_FALSE(t.stack.sharedWith(mid.threads[1].stack));
    EXPECT_EQ(mid.mem[0].constValue(), x);
    EXPECT_EQ(fork.mem[0].constValue(), -1);
}

// An empty payload holds no block: building, copying, reading and
// write-accessing empty vectors and threads allocates nothing.
TEST(AllocationTest, EmptyPayloadsAllocateNothing)
{
    const std::uint64_t n = allocationsOf([] {
        CowVec<Value> a;
        CowVec<Value> b = a;
        EXPECT_TRUE(b.empty());
        EXPECT_EQ(b.begin(), b.end());
        b.rw();
        ThreadState t;
        ThreadState u = t;
        u.stack.rw();
        u.regs.rw();
        u.counts.rw();
        MemImage m;
        MemImage copy = m;
        EXPECT_EQ(copy.size(), 0u);
    });
    EXPECT_EQ(n, 0u);
}

// An expression node is one allocation: make_shared puts the control
// block beside the node, and the operands sit inline.
TEST(AllocationTest, ExpressionNodeIsOneAllocation)
{
    const sym::ExprPtr x = sym::Expr::symbol("x", 0);
    const sym::ExprPtr five = sym::mkConst(5); // interned: no node
    EXPECT_EQ(allocationsOf([&] {
                  sym::ExprPtr e = sym::Expr::binary(K::Add, x, five);
                  EXPECT_EQ(e->numChildren(), 2);
              }),
              1u);
    EXPECT_EQ(allocationsOf([] {
                  sym::ExprPtr c = sym::Expr::constant(1 << 20);
                  EXPECT_EQ(c->constValue(), 1 << 20);
              }),
              1u);
}

/** Main outputs @p n records whose labels and source file name are
 *  too long for a string's inline buffer. */
ir::Program
outputProgram(int n)
{
    ir::ProgramBuilder pb("alloc_output");
    auto &m = pb.function("main", 0);
    m.file("a_source_file_with_a_long_name.pil").line(7);
    m.to(m.block("entry"));
    for (int i = 0; i < n; ++i)
        m.output("an output label longer than sixteen bytes", I(5000));
    m.halt();
    return pb.build();
}

// Output records borrow their label and location from the decode:
// copying a log copies its record array and nothing per record.
TEST(AllocationTest, OutputLogCopyIsOneAllocation)
{
    const ir::Program p = outputProgram(8);
    Interpreter interp(p, ExecOptions{});
    ASSERT_EQ(interp.run(), RunOutcome::Exited);
    const OutputLog &log = interp.state().output;
    ASSERT_EQ(log.size(), 8u);
    ASSERT_NE(log.records[0].loc, nullptr);
    EXPECT_EQ(log.records[0].loc->file,
              "a_source_file_with_a_long_name.pil");
    EXPECT_EQ(log.records[0].label,
              "an output label longer than sixteen bytes");
    EXPECT_EQ(allocationsOf([&] { OutputLog copy = log; }), 1u);
}

/** Allocations a happens-before detector makes over @p n writes of
 *  one cell by thread 1 between its creation and a mutex release. */
std::uint64_t
hbAccessAllocations(const ir::Program &p, int n)
{
    race::HbDetector hb(p);
    Event create;
    create.kind = EventKind::ThreadCreate;
    create.tid = 0;
    create.other = 1;
    hb.onEvent(create);
    Event lock;
    lock.kind = EventKind::MutexLock;
    lock.tid = 1;
    lock.sid = 0;
    hb.onEvent(lock);
    const std::uint64_t count = allocationsOf([&] {
        for (int i = 0; i < n; ++i) {
            Event w;
            w.kind = EventKind::MemWrite;
            w.tid = 1;
            w.cell = 0;
            w.occurrence = static_cast<std::uint64_t>(i + 1);
            w.cell_occurrence = w.occurrence;
            hb.onEvent(w);
        }
    });
    Event unlock = lock;
    unlock.kind = EventKind::MutexUnlock;
    hb.onEvent(unlock);
    EXPECT_TRUE(hb.races().empty());
    return count;
}

// Accesses between two synchronization events share one snapshot of
// the thread's clock: N and 2N accesses differ only by the cell
// history's own geometric regrowth.
TEST(AllocationTest, HbAccessesShareTheirClockSnapshot)
{
    const ir::Program p = loopProgram(1);
    const std::uint64_t n = hbAccessAllocations(p, 100);
    const std::uint64_t twice = hbAccessAllocations(p, 200);
    EXPECT_GE(twice, n);
    EXPECT_LE(twice - n, 1u) << n << " vs " << twice;
}

} // namespace
} // namespace portend::rt
