/**
 * @file
 * Ad-hoc-synchronization detector baselines (Helgrind+ [27] and
 * Ad-Hoc-Detector [55]).
 *
 * These tools prune race reports caused by ad-hoc synchronization:
 * they recognize spin-wait loops on shared flags and declare races
 * on those flags "single ordering". They classify nothing else —
 * races that are not ad-hoc synchronization are left unclassified
 * (paper §5.4 Table 5).
 *
 * The recognition here is a static pattern analysis on PIL: a loop
 * whose exit condition is fed by a load of a global that the loop
 * body never writes and that contains no blocking synchronization
 * is a spin-wait on that global.
 */

#ifndef PORTEND_BASELINE_ADHOC_DETECTOR_H
#define PORTEND_BASELINE_ADHOC_DETECTOR_H

#include <set>

#include "ir/program.h"
#include "race/report.h"

namespace portend::baseline {

/** Verdict of an ad-hoc-synchronization pruner. */
enum class AdhocVerdict : std::uint8_t {
    SingleOrdering, ///< race is on a recognized spin-wait flag
    NotClassified,  ///< tool has nothing to say about this race
};

/**
 * Static spin-loop recognizer.
 */
class AdhocDetector
{
  public:
    /** Analyze @p prog once; verdicts are then O(1) per race. */
    explicit AdhocDetector(const ir::Program &prog);

    /** Classify one race report. */
    AdhocVerdict classify(const race::RaceReport &race) const;

    /** Globals recognized as spin-wait flags. */
    const std::set<ir::GlobalId> &spinFlags() const { return flags; }

  private:
    const ir::Program &prog;
    std::set<ir::GlobalId> flags;
};

} // namespace portend::baseline

#endif // PORTEND_BASELINE_ADHOC_DETECTOR_H
