/** @file Tests for vector clocks and the race detectors. */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/builder.h"
#include "portend/portend.h"
#include "race/hb.h"
#include "race/lockset.h"
#include "race/vclock.h"
#include "rt/interpreter.h"
#include "support/observe.h"
#include "support/rng.h"

namespace portend::race {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

TEST(VClockTest, TickAndGet)
{
    VectorClock c;
    EXPECT_EQ(c.get(3), 0u);
    c.tick(3);
    c.tick(3);
    EXPECT_EQ(c.get(3), 2u);
}

TEST(VClockTest, JoinIsPointwiseMax)
{
    VectorClock a, b;
    a.set(0, 5);
    a.set(1, 1);
    b.set(1, 7);
    a.join(b);
    EXPECT_EQ(a.get(0), 5u);
    EXPECT_EQ(a.get(1), 7u);
}

TEST(VClockTest, OrderingLaws)
{
    VectorClock a, b;
    a.set(0, 1);
    b.set(0, 2);
    b.set(1, 1);
    EXPECT_TRUE(a.lessOrEqual(b));
    EXPECT_FALSE(b.lessOrEqual(a));
    // Incomparable pair.
    VectorClock c, d;
    c.set(0, 2);
    d.set(1, 2);
    EXPECT_FALSE(c.lessOrEqual(d));
    EXPECT_FALSE(d.lessOrEqual(c));
}

/** Property: join is a least upper bound (lattice laws). */
class VClockLattice : public ::testing::TestWithParam<int>
{
  protected:
    VectorClock
    randomClock(Rng &rng)
    {
        VectorClock c;
        for (int t = 0; t < 4; ++t)
            c.set(t, rng.below(6));
        return c;
    }
};

TEST_P(VClockLattice, JoinIsLub)
{
    Rng rng(GetParam() * 997 + 3);
    for (int i = 0; i < 100; ++i) {
        VectorClock a = randomClock(rng);
        VectorClock b = randomClock(rng);
        VectorClock j = a;
        j.join(b);
        EXPECT_TRUE(a.lessOrEqual(j));
        EXPECT_TRUE(b.lessOrEqual(j));
        // Idempotent and commutative.
        VectorClock j2 = b;
        j2.join(a);
        EXPECT_TRUE(j == j2);
        VectorClock j3 = j;
        j3.join(j);
        EXPECT_TRUE(j3 == j);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VClockLattice, ::testing::Range(0, 6));

namespace {

/** Two-thread unsynchronized counter increment. */
ir::Program
racyProgram(bool with_lock)
{
    ir::ProgramBuilder pb(with_lock ? "locked" : "racy");
    ir::GlobalId g = pb.global("counter");
    ir::SyncId m = pb.mutex("l");
    auto &w = pb.function("w", 1);
    w.to(w.block("entry"));
    if (with_lock)
        w.lock(m);
    ir::Reg v = w.load(g);
    w.store(g, I(0), R(w.bin(K::Add, R(v), I(1))));
    if (with_lock)
        w.unlock(m);
    w.retVoid();
    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg t1 = mn.threadCreate("w", I(0));
    ir::Reg t2 = mn.threadCreate("w", I(0));
    mn.threadJoin(R(t1));
    mn.threadJoin(R(t2));
    mn.halt();
    return pb.build();
}

std::vector<RaceReport>
detect(const ir::Program &p, HbOptions opts = {})
{
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    rt::Interpreter interp(p, eo);
    rt::RotatePolicy rot;
    interp.setPolicy(&rot);
    HbDetector hb(p, opts);
    interp.addSink(&hb);
    EXPECT_EQ(interp.run(), rt::RunOutcome::Exited);
    return hb.races();
}

} // namespace

TEST(HbDetectorTest, ReportsUnsynchronizedConflicts)
{
    auto races = detect(racyProgram(false));
    EXPECT_FALSE(races.empty());
    for (const auto &r : races) {
        EXPECT_NE(r.first.tid, r.second.tid);
        EXPECT_TRUE(r.first.is_write || r.second.is_write);
    }
}

TEST(HbDetectorTest, MutexOrderingSuppressesRaces)
{
    EXPECT_TRUE(detect(racyProgram(true)).empty());
}

TEST(HbDetectorTest, IgnoreMutexesReintroducesRaces)
{
    // The paper's imperfect-detector experiment (§5.2): removing
    // mutex awareness turns protected accesses into reports.
    HbOptions opts;
    opts.ignore_mutexes = true;
    EXPECT_FALSE(detect(racyProgram(true), opts).empty());
}

TEST(HbDetectorTest, ForkJoinEdgesRespected)
{
    // Parent writes before create, child reads; join, then parent
    // reads again: fully ordered, no races.
    ir::ProgramBuilder pb("forkjoin");
    ir::GlobalId g = pb.global("x");
    auto &w = pb.function("w", 1);
    w.to(w.block("entry"));
    w.load(g);
    w.store(g, I(0), I(5));
    w.retVoid();
    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    mn.store(g, I(0), I(1));
    ir::Reg t = mn.threadCreate("w", I(0));
    mn.threadJoin(R(t));
    mn.load(g);
    mn.halt();
    EXPECT_TRUE(detect(pb.build()).empty());
}

TEST(HbDetectorTest, CondSignalCreatesEdge)
{
    // The classic handshake: writer sets data, signals; waiter
    // (already waiting, mutex-protected while-loop) reads data.
    ir::ProgramBuilder pb("handshake");
    ir::GlobalId data = pb.global("data");
    ir::GlobalId ready = pb.global("ready");
    ir::SyncId m = pb.mutex("l");
    ir::SyncId cv = pb.cond("cv");
    auto &waiter = pb.function("waiter", 1);
    ir::BlockId e = waiter.block("entry");
    ir::BlockId chk = waiter.block("chk");
    ir::BlockId wb = waiter.block("wb");
    ir::BlockId go = waiter.block("go");
    waiter.to(e);
    waiter.lock(m);
    waiter.jmp(chk);
    waiter.to(chk);
    ir::Reg r = waiter.load(ready);
    waiter.br(R(r), go, wb);
    waiter.to(wb);
    waiter.condWait(cv, m);
    waiter.jmp(chk);
    waiter.to(go);
    waiter.unlock(m);
    waiter.load(data); // ordered after the signal via cv + mutex
    waiter.retVoid();
    auto &setter = pb.function("setter", 1);
    setter.to(setter.block("entry"));
    setter.store(data, I(0), I(9));
    setter.lock(m);
    setter.store(ready, I(0), I(1));
    setter.condSignal(cv);
    setter.unlock(m);
    setter.retVoid();
    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg t1 = mn.threadCreate("waiter", I(0));
    ir::Reg t2 = mn.threadCreate("setter", I(0));
    mn.threadJoin(R(t1));
    mn.threadJoin(R(t2));
    mn.halt();
    EXPECT_TRUE(detect(pb.build()).empty());
}

TEST(HbDetectorTest, AtomicPairsIgnoredByDefault)
{
    ir::ProgramBuilder pb("atomics");
    ir::GlobalId g = pb.global("stat");
    auto &w = pb.function("w", 1);
    w.to(w.block("entry"));
    w.atomicAdd(g, I(0), I(1));
    w.retVoid();
    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg t1 = mn.threadCreate("w", I(0));
    ir::Reg t2 = mn.threadCreate("w", I(0));
    mn.threadJoin(R(t1));
    mn.threadJoin(R(t2));
    mn.halt();
    EXPECT_TRUE(detect(pb.build()).empty());
}

TEST(ClusterTest, GroupsByCellAndPcs)
{
    RaceReport a;
    a.cell = 3;
    a.first.pc = 10;
    a.second.pc = 20;
    RaceReport b = a; // same static race, later occurrence
    b.first.occurrence = 2;
    RaceReport c = a;
    c.second.pc = 21; // different pc: distinct race
    auto clusters = clusterRaces({a, b, c});
    ASSERT_EQ(clusters.size(), 2u);
    EXPECT_EQ(clusters[0].instances, 2);
    // Latest occurrence becomes the representative.
    EXPECT_EQ(clusters[0].representative.first.occurrence, 2u);
    EXPECT_EQ(clusters[1].instances, 1);

    // Swapped pcs name the same static race, and interleaved
    // occurrences (a, c, then a's race again) keep first-occurrence
    // order. The representative is the latest occurrence, whole.
    RaceReport late = a;
    std::swap(late.first.pc, late.second.pc);
    late.first.tid = 2;
    late.first.is_write = true;
    late.first.atomic = true;
    late.first.occurrence = 5;
    late.first.cell_occurrence = 6;
    late.first.step = 70;
    late.first.loc = {"late.c", 8};
    late.second.tid = 1;
    late.second.step = 90;
    late.second.loc = {"late.c", 9};
    clusters = clusterRaces({a, c, late});
    ASSERT_EQ(clusters.size(), 2u);
    EXPECT_EQ(clusters[0].instances, 2);
    EXPECT_EQ(clusters[1].instances, 1);
    EXPECT_EQ(clusters[1].representative.second.pc, 21);
    const RaceReport &rep = clusters[0].representative;
    EXPECT_EQ(rep.cell, late.cell);
    for (const auto &[got, want] :
         {std::pair{&rep.first, &late.first},
          std::pair{&rep.second, &late.second}}) {
        EXPECT_EQ(got->tid, want->tid);
        EXPECT_EQ(got->pc, want->pc);
        EXPECT_EQ(got->is_write, want->is_write);
        EXPECT_EQ(got->atomic, want->atomic);
        EXPECT_EQ(got->occurrence, want->occurrence);
        EXPECT_EQ(got->cell_occurrence, want->cell_occurrence);
        EXPECT_EQ(got->step, want->step);
        EXPECT_EQ(got->loc.toString(), want->loc.toString());
    }

    // Two reports share a cluster exactly when their key() strings
    // are equal (the fuzz oracle keys its maps by key()).
    Rng rng(93);
    std::vector<RaceReport> reports(400);
    // Expected by key(): first-occurrence order, occurrences, and
    // the step of each key's latest occurrence.
    std::vector<std::string> order;
    std::map<std::string, int> count;
    std::map<std::string, std::uint64_t> last;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        RaceReport &r = reports[i];
        r.cell = static_cast<int>(rng.range(-1, 3));
        r.first.pc = static_cast<int>(rng.range(-1, 4));
        r.second.pc = static_cast<int>(rng.range(-1, 4));
        r.second.step = i;
        if (count[r.key()]++ == 0)
            order.push_back(r.key());
        last[r.key()] = i;
    }
    clusters = clusterRaces(reports);
    ASSERT_EQ(clusters.size(), order.size());
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        EXPECT_EQ(clusters[i].representative.key(), order[i]);
        EXPECT_EQ(clusters[i].instances, count[order[i]]);
        EXPECT_EQ(clusters[i].representative.second.step, last[order[i]]);
    }
}

TEST(LocksetTest, ReportsEmptyLocksetAccesses)
{
    auto p = racyProgram(false);
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    rt::Interpreter interp(p, eo);
    rt::RotatePolicy rot;
    interp.setPolicy(&rot);
    LocksetDetector ls(p);
    interp.addSink(&ls);
    interp.run();
    EXPECT_FALSE(ls.races().empty());
}

TEST(LocksetTest, FalsePositiveOnForkJoinOrdering)
{
    // Lockset ignores fork/join ordering, unlike happens-before:
    // this is exactly why static-style detectors need Portend.
    ir::ProgramBuilder pb("fp");
    ir::GlobalId g = pb.global("x");
    auto &w = pb.function("w", 1);
    w.to(w.block("entry"));
    w.store(g, I(0), I(5));
    w.retVoid();
    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    mn.store(g, I(0), I(1));
    ir::Reg t = mn.threadCreate("w", I(0));
    mn.threadJoin(R(t));
    mn.load(g);
    mn.halt();
    auto p = pb.build();

    rt::Interpreter interp(p, rt::ExecOptions{});
    LocksetDetector ls(p);
    HbDetector hb(p);
    interp.addSink(&ls);
    interp.addSink(&hb);
    interp.run();
    EXPECT_FALSE(ls.races().empty()); // lockset: false positive
    EXPECT_TRUE(hb.races().empty());  // happens-before: clean
}

/** A writer stores to x kWrites times; a sibling reads x once. */
constexpr int kWrites = 5000;

ir::Program
longHistoryProgram()
{
    ir::ProgramBuilder pb("long_history");
    ir::GlobalId g = pb.global("x");
    auto &w = pb.function("writer", 1);
    ir::BlockId entry = w.block("entry");
    ir::BlockId body = w.block("body");
    ir::BlockId done = w.block("done");
    w.to(entry);
    ir::Reg i = w.iconst(0);
    w.jmp(body);
    w.to(body);
    w.store(g, I(0), R(i));
    w.binInto(i, K::Add, R(i), I(1));
    w.br(R(w.bin(K::Slt, R(i), I(kWrites))), body, done);
    w.to(done);
    w.retVoid();
    auto &r = pb.function("reader", 1);
    r.to(r.block("entry"));
    r.load(g);
    r.retVoid();
    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg t1 = mn.threadCreate("writer", I(0));
    ir::Reg t2 = mn.threadCreate("reader", I(0));
    mn.threadJoin(R(t1));
    mn.threadJoin(R(t2));
    mn.halt();
    return pb.build();
}

TEST(DetectorHistoryTest, EvictionsAreCountedAndReportsPinned)
{
    // Default FIFO: the writer finishes all its stores, then the
    // reader's one load races with every retained store.
    const ir::Program p = longHistoryProgram();
    rt::Interpreter interp(p, rt::ExecOptions{});
    HbDetector hb(p);
    LocksetDetector ls(p);
    interp.addSink(&hb);
    interp.addSink(&ls);
    EXPECT_EQ(interp.run(), rt::RunOutcome::Exited);

    // 5,001 accesses to one cell against a 4,096-entry history.
    const std::uint64_t dropped = kWrites + 1 - 4096;
    EXPECT_EQ(hb.evictions(), dropped);
    EXPECT_EQ(ls.evictions(), dropped);
    // Happens-before pairs the read with each retained store (the
    // evicted ones are gone); lockset with the latest one.
    ASSERT_EQ(hb.races().size(), 4096u);
    EXPECT_EQ(hb.races().front().first.cell_occurrence,
              static_cast<std::uint64_t>(kWrites - 4096 + 1));
    EXPECT_EQ(hb.races().back().first.cell_occurrence,
              static_cast<std::uint64_t>(kWrites));
    ASSERT_EQ(ls.races().size(), 1u);
    EXPECT_EQ(ls.races()[0].first.cell_occurrence,
              static_cast<std::uint64_t>(kWrites));
    EXPECT_EQ(ls.races()[0].second.tid, 2);

    // The detection run exports the same count.
    for (core::DetectorKind kind :
         {core::DetectorKind::HappensBefore, core::DetectorKind::Lockset}) {
        core::PortendOptions opts;
        opts.detector = kind;
        core::Portend tool(p, opts);
        core::DetectionResult d = tool.detect();
        EXPECT_EQ(d.metrics.counter(obs::Counter::DetectHistoryEvictions),
                  dropped);
    }
}

} // namespace
} // namespace portend::race
