/**
 * @file
 * Dynamic happens-before data race detector.
 *
 * Consumes the interpreter's event stream and maintains vector
 * clocks per thread, release clocks per mutex, signal clocks per
 * condition variable, and generation clocks per barrier. Every
 * memory access is compared against the cell's recent access
 * history; two conflicting accesses by different threads that are
 * unordered by happens-before constitute a race (paper §3.1, [31]).
 *
 * The detector can be configured to ignore mutex events, which
 * recreates the paper's "imperfect detector" experiment (§5.2): a
 * detector that misses synchronization reports false positives,
 * which Portend must then classify as "single ordering".
 */

#ifndef PORTEND_RACE_HB_H
#define PORTEND_RACE_HB_H

#include <map>
#include <memory>
#include <vector>

#include "ir/program.h"
#include "race/report.h"
#include "race/vclock.h"
#include "rt/events.h"

namespace portend::race {

/** Detector configuration. */
struct HbOptions
{
    /** Drop mutex lock/unlock edges (imperfect-detector mode). */
    bool ignore_mutexes = false;
};

/**
 * Happens-before detector; attach as an event sink to an
 * Interpreter, run, then read races() (race::clusterRaces groups
 * them).
 */
class HbDetector : public rt::EventSink
{
  public:
    /**
     * @param p    the program under test (for barrier counts)
     * @param opts detector configuration
     */
    explicit HbDetector(const ir::Program &p, HbOptions opts = {});

    void onEvent(const rt::Event &ev) override;

    /** All dynamic race occurrences, in detection order. */
    const std::vector<RaceReport> &races() const { return reports; }

    /** Accesses dropped from full per-cell histories; a race
     *  against a dropped access goes unreported. */
    std::uint64_t evictions() const { return evictions_; }

    /** Reset all detector state (for a fresh run). */
    void reset();

  private:
    /** A past access: its event (location borrowed from the
     *  decode, copied only into a report) and the thread's clock at
     *  the access, shared with the thread's other accesses under the
     *  same clock. */
    struct CellAccess
    {
        rt::Event access;
        std::shared_ptr<const VectorClock> clock;
    };

    /** A thread's clock and, once an access has read it, an
     *  immutable copy that the accesses under this clock share. */
    struct ThreadClock
    {
        VectorClock clock;
        std::shared_ptr<const VectorClock> snapshot;
    };

    /** Thread clock for update, growing on demand; drops the
     *  snapshot, since the caller may change the clock. */
    VectorClock &clockOf(rt::ThreadId tid);

    /** Thread @p tid's snapshot, taken now if its clock changed
     *  since the last one. */
    const std::shared_ptr<const VectorClock> &snapshotOf(rt::ThreadId tid);

    void handleAccess(const rt::Event &ev, bool is_write);

    const ir::Program &prog;
    HbOptions opts;

    std::vector<ThreadClock> thread_clocks;
    std::map<int, VectorClock> mutex_clocks;
    std::map<int, VectorClock> cond_clocks;
    std::map<int, VectorClock> exit_clocks;
    std::map<int, std::vector<rt::ThreadId>> barrier_pending;
    std::map<int, HistoryRing<CellAccess>> history;

    std::vector<RaceReport> reports;
    std::uint64_t evictions_ = 0;
};

} // namespace portend::race

#endif // PORTEND_RACE_HB_H
