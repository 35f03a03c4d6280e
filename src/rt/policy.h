/**
 * @file
 * Thread scheduling policies.
 *
 * The interpreter is a single-processor cooperative scheduler (paper
 * §3.1/§6): at every preemption point it asks its SchedulePolicy
 * which runnable thread runs next. Policies also observe the event
 * stream, which is how the replayer enforces racy-access orderings.
 */

#ifndef PORTEND_RT_POLICY_H
#define PORTEND_RT_POLICY_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rt/events.h"
#include "rt/vmstate.h"

namespace portend::rt {

/**
 * Scheduling decision provider.
 */
class SchedulePolicy
{
  public:
    virtual ~SchedulePolicy() = default;

    /**
     * Choose the next thread to run.
     *
     * @param state     current VM state
     * @param runnable  non-empty ascending list of runnable tids
     * @return a tid from @p runnable, or -1 to abort the execution
     *         (reported as RunOutcome::Aborted)
     */
    virtual ThreadId pick(const VmState &state,
                          const std::vector<ThreadId> &runnable) = 0;

    /** Observe an event (default: ignore). */
    virtual void onEvent(const Event &ev) { (void)ev; }

    /**
     * Exact loop detection hook (see Interpreter::run): append the
     * private state that, together with @p state's projected part,
     * determines every later pick(), and return true. Returning
     * true vouches that a run returning to an earlier decision with
     * an equal projected state and an equal key repeats itself
     * forever. The default cannot vouch, so a policy that does not
     * override this never has its runs shortened.
     */
    virtual bool
    loopKey(const VmState &state, std::vector<std::uint64_t> &key) const
    {
        (void)state;
        (void)key;
        return false;
    }
};

/**
 * Run the current thread as long as possible; otherwise the lowest
 * runnable tid. Deterministic; the default for plain execution.
 */
class FifoPolicy : public SchedulePolicy
{
  public:
    ThreadId
    pick(const VmState &state,
         const std::vector<ThreadId> &runnable) override
    {
        for (ThreadId t : runnable) {
            if (t == state.current)
                return t;
        }
        return runnable.front();
    }

    /** Stateless: picks depend on the projected state alone. */
    bool
    loopKey(const VmState &, std::vector<std::uint64_t> &) const override
    {
        return true;
    }
};

/**
 * Uniformly random choice at every preemption point, from the seeded
 * RNG carried in the VM state (so forks replay deterministically).
 */
class RandomPolicy : public SchedulePolicy
{
  public:
    ThreadId
    pick(const VmState &state,
         const std::vector<ThreadId> &runnable) override
    {
        // The RNG lives in the state; pick() is conceptually part of
        // the execution, so we cast away the observer constness here
        // deliberately (documented exception).
        auto &rng = const_cast<VmState &>(state).rng;
        return runnable[rng.below(runnable.size())];
    }

    /** The RNG is part of the projected state; nothing else. */
    bool
    loopKey(const VmState &, std::vector<std::uint64_t> &) const override
    {
        return true;
    }
};

/**
 * Round-robin rotation at every preemption point: always yields to
 * the next runnable thread after the current one. Maximizes
 * interleaving for race *detection* runs.
 */
class RotatePolicy : public SchedulePolicy
{
  public:
    ThreadId
    pick(const VmState &state,
         const std::vector<ThreadId> &runnable) override
    {
        for (ThreadId t : runnable) {
            if (t > state.current)
                return t;
        }
        return runnable.front();
    }

    /** Stateless: picks depend on the projected state alone. */
    bool
    loopKey(const VmState &, std::vector<std::uint64_t> &) const override
    {
        return true;
    }
};

/**
 * What one guided (or observed) execution actually did: the raw
 * material for dependence analysis between schedules. Every
 * scheduling decision is recorded with the runnable set it chose
 * from, and every observable event is mapped onto a *site* — the
 * accessed cell for memory events, a pseudo-site for sync objects,
 * thread lifecycle, and outputs — so two events conflict iff they
 * touch the same site and at least one writes it (or share a
 * thread, i.e. program order).
 */
struct ScheduleObservation
{
    /** One observed event, reduced to its dependence footprint. */
    struct Access
    {
        ThreadId tid = -1;
        int site = 0;     ///< cell id, or a negative pseudo-site
        bool write = false;
        int pick = -1;    ///< index of the decision that scheduled
                          ///< the segment containing this event
                          ///< (-1: before the first observed pick)
    };

    std::vector<Access> accesses;

    /** Chosen thread per decision point, in decision order. */
    std::vector<ThreadId> picks;

    /**
     * Runnable sets offered at the decision points, stored flat: set
     * i is enabled_ids[enabled_end[i - 1], enabled_end[i]), from 0
     * for i = 0. Recording a decision appends to two vectors and
     * never allocates a set of its own.
     */
    std::vector<ThreadId> enabled_ids;
    std::vector<std::uint32_t> enabled_end;

    bool empty() const { return accesses.empty() && picks.empty(); }

    /** Number of recorded runnable sets. */
    std::size_t enabledCount() const { return enabled_end.size(); }

    /** Runnable set offered at decision @p i. */
    std::span<const ThreadId>
    enabled(std::size_t i) const
    {
        const std::uint32_t from = i == 0 ? 0 : enabled_end[i - 1];
        return {enabled_ids.data() + from, enabled_end[i] - from};
    }

    /** Record the runnable set of the next decision. */
    void
    addEnabled(std::span<const ThreadId> set)
    {
        enabled_ids.insert(enabled_ids.end(), set.begin(), set.end());
        enabled_end.push_back(
            static_cast<std::uint32_t>(enabled_ids.size()));
    }

    /** Keep only the first @p n runnable sets. */
    void
    keepEnabled(std::size_t n)
    {
        if (n >= enabled_end.size())
            return;
        enabled_end.resize(n);
        enabled_ids.resize(n == 0 ? 0 : enabled_end.back());
    }

    /** Dependence footprint of one event (see struct comment). */
    static Access
    accessOf(const Event &ev, int pick)
    {
        Access a;
        a.tid = ev.tid;
        a.pick = pick;
        switch (ev.kind) {
          case EventKind::MemRead:
            a.site = ev.cell;
            a.write = false;
            break;
          case EventKind::MemWrite:
            a.site = ev.cell;
            a.write = true;
            break;
          case EventKind::MutexLock:
          case EventKind::MutexUnlock:
          case EventKind::CondWait:
          case EventKind::CondSignal:
          case EventKind::BarrierWait:
            // All operations on one sync object conflict.
            a.site = -(2 + ev.sid);
            a.write = true;
            break;
          case EventKind::ThreadCreate:
          case EventKind::ThreadJoin:
            // Lifecycle events order against the peer thread.
            a.site = -(100000 + ev.other);
            a.write = true;
            break;
          case EventKind::ThreadStart:
          case EventKind::ThreadExit:
            a.site = -(100000 + ev.tid);
            a.write = true;
            break;
          case EventKind::Output:
            // One console: cross-thread output order is observable.
            a.site = -1;
            a.write = true;
            break;
        }
        return a;
    }

    /** True when two accesses may not be reordered. */
    static bool
    dependent(const Access &a, const Access &b)
    {
        return a.tid == b.tid ||
               (a.site == b.site && (a.write || b.write));
    }
};

/**
 * Replays an explorer-issued schedule: consumes an explicit list of
 * thread choices at successive preemption points, then delegates to
 * a fallback policy, recording everything it saw either way. A
 * guided run is fully deterministic (deterministic fallback assumed;
 * a seeded RandomPolicy fallback is deterministic per seed), so any
 * schedule the explorer found interesting replays from its prefix
 * alone — this is what makes explorer evidence replayable.
 *
 * The prefix is consumed by this policy instance's own cursor, not
 * the VM state, so construct a fresh GuidedPolicy per run.
 */
class GuidedPolicy : public SchedulePolicy
{
  public:
    /**
     * @param prefix   thread to schedule at the first, second, ...
     *                 decision point this policy is consulted for
     * @param fallback decision maker past the prefix (non-owning);
     *                 also consulted when a prefix thread is not
     *                 runnable (a diverged replay)
     */
    GuidedPolicy(std::vector<ThreadId> prefix, SchedulePolicy *fallback)
        : prefix(std::move(prefix)), fallback(fallback)
    {}

    ThreadId
    pick(const VmState &state,
         const std::vector<ThreadId> &runnable) override
    {
        const std::size_t idx = obs.picks.size();
        ThreadId chosen = -2;
        if (idx < prefix.size()) {
            for (ThreadId t : runnable) {
                if (t == prefix[idx])
                    chosen = t;
            }
        }
        if (chosen == -2)
            chosen = fallback->pick(state, runnable);
        obs.addEnabled(runnable);
        obs.picks.push_back(chosen);
        return chosen;
    }

    void
    onEvent(const Event &ev) override
    {
        obs.accesses.push_back(ScheduleObservation::accessOf(
            ev, static_cast<int>(obs.picks.size()) - 1));
        fallback->onEvent(ev);
    }

    /** Everything this run did, for explorer feedback. */
    const ScheduleObservation &observation() const { return obs; }

    /** Move the observation out (the policy is dead afterwards). */
    ScheduleObservation takeObservation() { return std::move(obs); }

  private:
    std::vector<ThreadId> prefix;
    SchedulePolicy *fallback;
    ScheduleObservation obs;
};

} // namespace portend::rt

#endif // PORTEND_RT_POLICY_H
