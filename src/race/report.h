/**
 * @file
 * Race reports and clustering.
 *
 * A report names the two unordered accesses; clustering groups
 * dynamic occurrences of the same static race (same cell, same
 * program counters) so Portend analyzes one representative per
 * cluster and reports the instance count (paper §4, Table 3).
 */

#ifndef PORTEND_RACE_REPORT_H
#define PORTEND_RACE_REPORT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/program.h"
#include "rt/events.h"

namespace portend::race {

/**
 * Per-cell bound of the accesses either detector keeps for report
 * pairing. The oldest access is evicted first, and each eviction is
 * counted (see HbDetector::evictions(), LocksetDetector::evictions()).
 */
inline constexpr std::size_t kMaxHistory = 4096;

/**
 * One cell's access history, bounded at kMaxHistory. Past the bound
 * a push overwrites the oldest entry in place (a ring), so an
 * eviction costs O(1) and indexing stays oldest-first.
 */
template <typename T>
class HistoryRing
{
  public:
    /** Append @p v; true when that evicted the oldest entry. */
    bool
    push(T v)
    {
        if (buf.size() < kMaxHistory) {
            buf.push_back(std::move(v));
            return false;
        }
        buf[oldest] = std::move(v);
        oldest = oldest + 1 == buf.size() ? 0 : oldest + 1;
        return true;
    }

    std::size_t size() const { return buf.size(); }

    /** The @p i-th oldest entry. */
    const T &
    operator[](std::size_t i) const
    {
        const std::size_t j = oldest + i;
        return buf[j < buf.size() ? j : j - buf.size()];
    }

  private:
    std::vector<T> buf;
    std::size_t oldest = 0; ///< index of the oldest entry once full
};

/** One side of a racing pair. */
struct RaceAccess
{
    rt::ThreadId tid = -1;
    int pc = -1;
    bool is_write = false;
    bool atomic = false;
    std::uint64_t occurrence = 0; ///< nth dynamic execution of (tid, pc)
    std::uint64_t cell_occurrence = 0; ///< nth access of (tid, cell)
    std::uint64_t step = 0;       ///< global step of the access
    ir::SourceLoc loc;
};

/** The race side of memory event @p ev (copies its location). */
RaceAccess raceAccessOf(const rt::Event &ev);

/** A dynamic race occurrence: two unordered conflicting accesses. */
struct RaceReport
{
    int cell = -1;          ///< flat cell id
    RaceAccess first;       ///< earlier access in the observed run
    RaceAccess second;      ///< later access in the observed run

    /** Stable identity of the static race: (cell, low pc, high pc). */
    std::string key() const;

    /** Fig. 6-style textual report. */
    std::string describe(const ir::Program &p) const;
};

/** A static race with its dynamic occurrence count. */
struct RaceCluster
{
    RaceReport representative; ///< latest occurrence observed
    int instances = 0;         ///< dynamic occurrences
};

/** Group dynamic reports into static clusters (stable order). */
std::vector<RaceCluster>
clusterRaces(const std::vector<RaceReport> &reports);

} // namespace portend::race

#endif // PORTEND_RACE_REPORT_H
