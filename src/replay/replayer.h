/**
 * @file
 * Record/replay scheduling policies.
 *
 * Three policies make up Portend's record/replay engine:
 *
 *  - RecordingPolicy decorates any policy and writes the schedule
 *    trace while the program runs.
 *  - TracePolicy replays a recorded trace. Its cursor is derived
 *    from the VM state's preemption-point counter, so a forked or
 *    checkpointed state resumes replay at exactly the right
 *    decision. It aborts on divergence and hands decisions past the
 *    trace end to a fallback policy.
 *  - AlternatePolicy enforces the *alternate* ordering of a racing
 *    access pair (Algorithm 1 line 6): it holds the original first
 *    accessor until the second accessor touches the racing cell,
 *    then hands over to a configurable post-race policy.
 */

#ifndef PORTEND_REPLAY_REPLAYER_H
#define PORTEND_REPLAY_REPLAYER_H

#include "ir/program.h"
#include "race/report.h"
#include "replay/trace.h"
#include "rt/policy.h"

namespace portend::replay {

/**
 * Wraps an inner policy, recording every decision into a trace.
 */
class RecordingPolicy : public rt::SchedulePolicy
{
  public:
    /**
     * @param prog  program being executed (to resolve next pcs)
     * @param inner the decision maker (non-owning)
     * @param out   trace receiving decisions (non-owning)
     */
    RecordingPolicy(const ir::Program &prog, rt::SchedulePolicy *inner,
                    ScheduleTrace *out)
        : prog(prog), inner(inner), out(out)
    {}

    rt::ThreadId pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable) override;

    void
    onEvent(const rt::Event &ev) override
    {
        inner->onEvent(ev);
    }

    /** Copy the environment log into the trace after the run. */
    static void captureInputs(const rt::VmState &state,
                              ScheduleTrace *out);

  private:
    const ir::Program &prog;
    rt::SchedulePolicy *inner;
    ScheduleTrace *out;
};

/**
 * Replays a schedule trace, aborting the execution on any divergence.
 */
class TracePolicy : public rt::SchedulePolicy
{
  public:
    /**
     * @param trace    decisions to follow
     * @param fallback policy used past the trace end (non-owning;
     *                 null aborts there too)
     */
    explicit TracePolicy(const ScheduleTrace &trace,
                         rt::SchedulePolicy *fallback = nullptr)
        : trace(trace), fallback(fallback)
    {}

    rt::ThreadId pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable) override;

    /**
     * Vouches only past the trace end, where the cursor (the state's
     * preemption counter, which only grows) can never index the
     * trace again and every pick is the fallback's. The private
     * divergence counter does not move there, so skipping cycles
     * leaves it exact.
     */
    bool loopKey(const rt::VmState &state,
                 std::vector<std::uint64_t> &key) const override;

    /** Number of decisions that could not be followed. */
    int divergences() const { return diverged; }

  private:
    const ScheduleTrace &trace;
    rt::SchedulePolicy *fallback;
    int diverged = 0;
};

/**
 * Enforces the alternate ordering of one racing pair, starting from
 * a state stopped just before the first racing access.
 *
 * After the ordering is enforced, the post-race schedule can either
 * continue following the original trace (shifted past the decisions
 * consumed while holding — the deterministic single-alternate of
 * Algorithm 1, which keeps orderings unrelated to the race intact)
 * or hand over to an arbitrary policy (randomized multi-schedule
 * analysis, §3.4).
 */
class AlternatePolicy : public rt::SchedulePolicy
{
  public:
    /**
     * @param race       race whose access order is reversed
     * @param post       policy for post-race decisions the trace
     *                   cannot answer (non-owning)
     * @param post_trace original schedule trace to keep following
     *                   after enforcement (may be null)
     */
    AlternatePolicy(const race::RaceReport &race,
                    rt::SchedulePolicy *post,
                    const ScheduleTrace *post_trace = nullptr)
        : held(race.first.tid), driven(race.second.tid),
          cell(race.cell),
          awaited(race.second.cell_occurrence > 0
                      ? race.second.cell_occurrence
                      : 1),
          post(post), post_trace(post_trace)
    {}

    rt::ThreadId pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable) override;

    void onEvent(const rt::Event &ev) override;

    /**
     * While holding, the key is the phase plus the second accessor's
     * access count on the racing cell, capped at the occurrence the
     * hold waits for: equal capped counts at both ends of a cycle
     * mean the cycle never reaches that occurrence, so a proven
     * cycle never releases and `hold_picks` (read only after
     * release) may stay behind when cycles are skipped. After
     * release the policy vouches only past the post-trace end,
     * where it defers to the post-race policy for good.
     */
    bool loopKey(const rt::VmState &state,
                 std::vector<std::uint64_t> &key) const override;

    /** True once the second accessor touched the racing cell. */
    bool enforced() const { return released; }

    /** True when holding starved the schedule (paper case (b)). */
    bool starved() const { return starved_; }

  private:
    /** Post-trace index of the decision at @p state (post-race). */
    std::uint64_t postTraceIndex(const rt::VmState &state) const;

    rt::ThreadId held;   ///< the original first accessor
    rt::ThreadId driven; ///< the second accessor
    int cell;            ///< the racing cell
    /** The second accessor's occurrence on the cell the hold waits
     *  for. */
    std::uint64_t awaited;
    rt::SchedulePolicy *post;
    const ScheduleTrace *post_trace;
    std::uint64_t hold_picks = 0;
    bool released = false;
    bool starved_ = false;
};

} // namespace portend::replay

#endif // PORTEND_REPLAY_REPLAYER_H
