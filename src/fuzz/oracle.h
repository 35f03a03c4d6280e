/**
 * @file
 * Differential and metamorphic testing oracle.
 *
 * Given one PIL program, the oracle runs it through the full
 * detector/classifier stack and cross-checks results that must agree
 * by construction, in the spirit of the detector-comparison
 * literature (detectors disagree exactly on corner cases a generator
 * mass-produces):
 *
 *  - structural: the program passes ir::verifyProgram, and its text
 *    serialization round-trips byte-identically;
 *  - determinism: the same program and options yield
 *    byte-identical verdict reports and an identical recorded
 *    schedule trace;
 *  - jobs invariance: `--jobs 2` verdict bytes equal `--jobs 1`
 *    (the PR-2 scheduler contract);
 *  - detector monotonicity: every cell raced under the full
 *    happens-before detector is also raced under the mutex-blind
 *    detector (fewer HB edges can only grow the unordered set) and
 *    under the Eraser-style lockset detector (an HB race implies no
 *    common lock);
 *  - schedule-coverage monotonicity: raising the Ma budget never
 *    loses a "spec violated" verdict;
 *  - witness-replay: every decisive verdict of the symbolic run
 *    (every declared input symbolic) carries evidence that
 *    replayEvidence reproduces byte-identically on repeated replays;
 *  - classifier vs. baselines: a race the static ad-hoc-sync
 *    detector prunes as "single ordering" must be classified
 *    "single ordering" by Portend (dynamic and static recognition of
 *    the same spin loop must agree).
 *
 * Comparisons that are *expected* to disagree (the paper's point:
 * e.g. the Record/Replay-Analyzer's conservative "likely harmful"
 * verdicts against Portend's k-witness) are recorded as counters,
 * never flagged.
 *
 * Shared work. The primary pipeline run (r1) records the program's
 * one shared detection, and the mutex-blind and lockset detectors of
 * the two detector-monotonicity checks observe that same run
 * (Portend::detect's observers) and are dropped before
 * classification. The jobs-invariance and ma-monotonicity re-runs
 * and the symbolic run only vary options detection never reads, so
 * they classify r1's detection (Portend::runFrom) instead of
 * recording it again; witness-replay replays the symbolic run's copy
 * of that trace. Determinism records its own detection with the
 * primary detector alone: that it records the same trace twice is
 * what it checks, and it also shows that r1's observers did not
 * steer r1's schedule.
 *
 * No check compares a budget against a stage-1-only run. Stage 1
 * (Algorithm 1 on the recorded inputs) reads none of the options the
 * re-runs vary, and a decisive stage-1 verdict ends the analysis, so
 * such a run agrees with every wider one by construction.
 */

#ifndef PORTEND_FUZZ_ORACLE_H
#define PORTEND_FUZZ_ORACLE_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ir/program.h"
#include "support/observe.h"

namespace portend::fuzz {

/** @name The oracle's pipeline budgets (small: fuzzing wants
 *  throughput). @{ */
constexpr int kOracleMp = 3;  ///< primary paths at full budget
constexpr int kOracleMa = 2;  ///< alternate schedules per primary
constexpr std::uint64_t kOracleMaxSteps = 200000; ///< per-run budget
constexpr int kOracleMaxStates = 64;              ///< symbolic fork cap
/** @} */

/** Oracle configuration. */
struct OracleOptions
{
    /**
     * Run the expensive metamorphic re-executions: determinism,
     * jobs-invariance, ma-monotonicity and, for a program that
     * declares inputs, witness-replay (the checks isDeepCheck
     * names). The cheap checks always run.
     */
    bool deep = true;
};

/**
 * True when check @p name runs only in a deep runOracle: a shallow
 * run never runs it, so only a deep probe can reproduce its failure.
 */
bool isDeepCheck(std::string_view name);

/** One oracle check's outcome. */
struct CheckResult
{
    std::string name;   ///< e.g. "determinism", "hb-subset-lockset"
    bool ok = true;
    std::string detail; ///< non-empty when failed (what disagreed)
};

/** Everything the oracle learned about one program. */
struct OracleVerdict
{
    std::vector<CheckResult> checks;

    /** Detection outcome name of the primary pipeline run. */
    std::string outcome;

    int distinct_races = 0;
    int dynamic_races = 0;

    /** Verdict-class name -> cluster count (primary run). */
    std::map<std::string, int> class_counts;

    /** Expected-to-disagree baseline counters (never flagged),
     *  e.g. "replay-analyzer-conservative-fp". */
    std::map<std::string, int> baseline_counts;

    /** Recorded schedule trace of the primary detection run
     *  (serialized; stored in corpus reproducers). */
    std::string trace_text;

    /** Concatenated Fig. 6 reports of the primary run. */
    std::string report_text;

    /**
     * The primary run's pipeline shard (its classify.*, detect.*,
     * verdicts.* and ladder.* counters), merged per program into
     * the fuzz and corpus exports; empty when the pipeline did not
     * run.
     */
    obs::MetricsShard metrics;

    /**
     * Solver-concretized witness inputs of the deep symbolic run
     * ("cell:name=value ..." per decisive verdict, space-joined;
     * "" when the program declares no inputs or nothing upgraded).
     * Stored in corpus reproducer meta.txt.
     */
    std::string witness_text;

    /** True when any check failed. */
    bool flagged() const;

    /** Name of the first failed check ("" when none). */
    std::string firstFailure() const;

    /**
     * Behavior signature for corpus novelty: detection outcome +
     * class histogram. Deterministic, wall-clock free.
     */
    std::string signature() const;
};

/** Run every applicable check against @p prog. */
OracleVerdict runOracle(const ir::Program &prog,
                        const OracleOptions &opts);

} // namespace portend::fuzz

#endif // PORTEND_FUZZ_ORACLE_H
