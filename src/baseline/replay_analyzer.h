/**
 * @file
 * Record/Replay-Analyzer baseline [45] (Narayanasamy et al., PLDI'07).
 *
 * The state-of-the-art classifier the paper compares against
 * (§2.1, §5.4). Given a recorded execution and a race, it re-runs
 * the execution while enforcing the alternate ordering of the racing
 * accesses and compares the *concrete state* (memory image)
 * immediately after the race:
 *
 *  - replay failure (the alternate cannot be enforced, e.g. ad-hoc
 *    synchronization diverges the replay) => classified HARMFUL
 *    (this conservatism is the source of its 74% false-positive
 *    rate on harmful-race classification);
 *  - post-race states differ => likely harmful;
 *  - post-race states equal  => likely harmless.
 *
 * It performs no multi-path exploration, no multi-schedule
 * exploration, and no output comparison.
 */

#ifndef PORTEND_BASELINE_REPLAY_ANALYZER_H
#define PORTEND_BASELINE_REPLAY_ANALYZER_H

#include <string>

#include "ir/program.h"
#include "race/report.h"
#include "replay/trace.h"

namespace portend::baseline {

/** Verdict of the Record/Replay-Analyzer. */
enum class ReplayVerdict : std::uint8_t {
    LikelyHarmful,  ///< states differed or replay failed
    LikelyHarmless, ///< states matched
    NotApplicable,  ///< race not reproducible in replay at all
};

/** Detailed result. */
struct ReplayAnalysis
{
    ReplayVerdict verdict = ReplayVerdict::NotApplicable;
    bool replay_failed = false;  ///< alternate not enforceable
    bool states_differ = false;  ///< memory diff after the race
    std::string detail;
};

/**
 * The baseline classifier.
 */
class ReplayAnalyzer
{
  public:
    explicit ReplayAnalyzer(const ir::Program &prog,
                            std::uint64_t max_steps = 2000000)
        : prog(prog), max_steps(max_steps)
    {}

    /** Classify @p race against the recorded @p trace. */
    ReplayAnalysis analyze(const race::RaceReport &race,
                           const replay::ScheduleTrace &trace);

  private:
    const ir::Program &prog;
    std::uint64_t max_steps;
};

} // namespace portend::baseline

#endif // PORTEND_BASELINE_REPLAY_ANALYZER_H
