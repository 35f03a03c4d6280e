#include "race/hb.h"

namespace portend::race {

HbDetector::HbDetector(const ir::Program &p, HbOptions opts)
    : prog(p), opts(opts)
{
    reset();
}

void
HbDetector::reset()
{
    thread_clocks.clear();
    mutex_clocks.clear();
    cond_clocks.clear();
    exit_clocks.clear();
    barrier_pending.clear();
    history.clear();
    reports.clear();
    evictions_ = 0;
    // Main thread starts with its own component at 1.
    clockOf(0).tick(0);
}

VectorClock &
HbDetector::clockOf(rt::ThreadId tid)
{
    if (tid >= static_cast<int>(thread_clocks.size()))
        thread_clocks.resize(tid + 1);
    ThreadClock &tc = thread_clocks[tid];
    tc.snapshot.reset();
    return tc.clock;
}

const std::shared_ptr<const VectorClock> &
HbDetector::snapshotOf(rt::ThreadId tid)
{
    if (tid >= static_cast<int>(thread_clocks.size()))
        thread_clocks.resize(tid + 1);
    ThreadClock &tc = thread_clocks[tid];
    if (!tc.snapshot)
        tc.snapshot = std::make_shared<const VectorClock>(tc.clock);
    return tc.snapshot;
}

void
HbDetector::handleAccess(const rt::Event &ev, bool is_write)
{
    // Accesses between two synchronization events of a thread share
    // one copy of its clock: a history entry holds a reference, not
    // a clock.
    const std::shared_ptr<const VectorClock> &snap = snapshotOf(ev.tid);
    const VectorClock &me = *snap;

    auto &hist = history[ev.cell];
    for (std::size_t i = 0; i < hist.size(); ++i) {
        const CellAccess &old = hist[i];
        if (old.access.tid == ev.tid)
            continue;
        const bool old_write =
            old.access.kind == rt::EventKind::MemWrite;
        if (!old_write && !is_write)
            continue; // read-read never races
        if (old.access.atomic && ev.atomic)
            continue; // atomic-atomic conflicts are not races
        if (!old.clock->lessOrEqual(me)) {
            RaceReport r;
            r.cell = ev.cell;
            r.first = raceAccessOf(old.access);
            r.second = raceAccessOf(ev);
            reports.push_back(std::move(r));
        }
    }

    if (hist.push(CellAccess{ev, snap}))
        evictions_ += 1;
}

void
HbDetector::onEvent(const rt::Event &ev)
{
    switch (ev.kind) {
      case rt::EventKind::MemRead:
        handleAccess(ev, false);
        break;
      case rt::EventKind::MemWrite:
        handleAccess(ev, true);
        break;

      case rt::EventKind::MutexLock:
        if (!opts.ignore_mutexes)
            clockOf(ev.tid).join(mutex_clocks[ev.sid]);
        break;
      case rt::EventKind::MutexUnlock:
        if (!opts.ignore_mutexes) {
            mutex_clocks[ev.sid] = clockOf(ev.tid);
            clockOf(ev.tid).tick(ev.tid);
        }
        break;

      case rt::EventKind::CondSignal: {
        VectorClock &me = clockOf(ev.tid);
        cond_clocks[ev.sid].join(me);
        me.tick(ev.tid);
        break;
      }
      case rt::EventKind::CondWait:
        clockOf(ev.tid).join(cond_clocks[ev.sid]);
        break;

      case rt::EventKind::BarrierWait: {
        auto &pending = barrier_pending[ev.sid];
        pending.push_back(ev.tid);
        int count = prog.barrier_counts.empty()
                        ? 0
                        : prog.barrier_counts[ev.sid];
        if (static_cast<int>(pending.size()) >= count) {
            // All participants emitted their pass events: join all
            // clocks and restart the generation.
            VectorClock joint;
            for (rt::ThreadId t : pending)
                joint.join(clockOf(t));
            for (rt::ThreadId t : pending) {
                clockOf(t) = joint;
                clockOf(t).tick(t);
            }
            pending.clear();
        }
        break;
      }

      case rt::EventKind::ThreadCreate: {
        // Grow the clock vector first: taking both references before
        // growth would leave one dangling after the resize.
        clockOf(std::max(ev.tid, ev.other));
        VectorClock &parent = clockOf(ev.tid);
        VectorClock &child = clockOf(ev.other);
        child.join(parent);
        child.tick(ev.other);
        parent.tick(ev.tid);
        break;
      }
      case rt::EventKind::ThreadExit:
        exit_clocks[ev.tid] = clockOf(ev.tid);
        break;
      case rt::EventKind::ThreadJoin: {
        auto it = exit_clocks.find(ev.other);
        if (it != exit_clocks.end())
            clockOf(ev.tid).join(it->second);
        break;
      }

      case rt::EventKind::ThreadStart:
      case rt::EventKind::Output:
        break;
    }
}

} // namespace portend::race
