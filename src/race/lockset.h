/**
 * @file
 * Eraser-style lockset race detector [49].
 *
 * Tracks the set of mutexes each thread holds; each shared cell's
 * candidate lockset is intersected at every access. A cell whose
 * candidate set becomes empty while accessed by multiple threads
 * (with at least one write) is reported. Lockset detection ignores
 * ordering (fork/join, condition variables), so — like static
 * detectors — it produces false positives that Portend must triage;
 * this detector exists to feed that experiment (paper §5.2, §5.1
 * "one could use a static race detector ... then use Portend to
 * classify these reports").
 */

#ifndef PORTEND_RACE_LOCKSET_H
#define PORTEND_RACE_LOCKSET_H

#include <map>
#include <set>
#include <vector>

#include "ir/program.h"
#include "race/report.h"
#include "rt/events.h"

namespace portend::race {

/**
 * Lockset detector; attach as an event sink, run, read races().
 */
class LocksetDetector : public rt::EventSink
{
  public:
    explicit LocksetDetector(const ir::Program &p);

    void onEvent(const rt::Event &ev) override;

    /** Reported races (one per offending access pair). */
    const std::vector<RaceReport> &races() const { return reports; }

    /** Accesses dropped from full per-cell histories; a race can
     *  then pair only with a newer conflicting access. */
    std::uint64_t evictions() const { return evictions_; }

    /** Reset all detector state. */
    void reset();

  private:
    struct CellState
    {
        bool lockset_valid = false;  ///< candidate set initialized
        std::set<int> candidate;     ///< intersection of held locks
        std::set<rt::ThreadId> accessors;
        bool any_write = false;
        HistoryRing<rt::Event> accesses; ///< for report pairing
    };

    const ir::Program &prog;
    std::map<rt::ThreadId, std::set<int>> held;
    std::map<int, CellState> cells;
    std::vector<RaceReport> reports;
    std::uint64_t evictions_ = 0;
};

} // namespace portend::race

#endif // PORTEND_RACE_LOCKSET_H
