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
 *  - determinism: the same seed yields byte-identical verdict
 *    reports and an identical recorded schedule trace;
 *  - jobs invariance: `--jobs 2` verdict bytes equal `--jobs 1`
 *    (the PR-2 scheduler contract);
 *  - detector monotonicity: every cell raced under the full
 *    happens-before detector is also raced under the mutex-blind
 *    detector (fewer HB edges can only grow the unordered set) and
 *    under the Eraser-style lockset detector (an HB race implies no
 *    common lock);
 *  - k-monotonicity: a "spec violated" verdict found by single-path
 *    single-schedule analysis is still found at a larger budget, and
 *    kWitnessHarmless k never shrinks as the budget grows;
 *  - schedule-coverage monotonicity: raising the Ma budget, or
 *    switching the stage-3 explorer from `random` to `dpor`, never
 *    loses a "spec violated" verdict — the dpor explorer runs the
 *    random explorer's schedules first (same seeds, same order)
 *    before its systematic candidates, so it witnesses a superset
 *    of behaviors at equal budget;
 *  - sym-monotonicity: making declared program inputs symbolic may
 *    only upgrade verdicts — a decisive single-path stage-1 verdict
 *    (spec violated / output differs) never becomes harmless when
 *    the multi-path forker explores additional feasible inputs;
 *  - witness-replay: every decisive verdict of the symbolic run
 *    carries evidence that replayEvidence reproduces
 *    byte-identically on repeated replays;
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
 * one shared detection. The jobs-invariance, explore- and
 * ma-monotonicity, k-monotonicity and sym-monotonicity re-runs only
 * vary options detection never reads, so they classify r1's
 * detection (Portend::runFrom) instead of recording it again;
 * witness-replay replays the sym run's copy of that trace.
 * Determinism records its own detection (that it records the same
 * trace twice is what it checks), and the two detector-monotonicity
 * checks detect under their own detectors. k- and sym-monotonicity
 * share one single-path stage-1 baseline run.
 */

#ifndef PORTEND_FUZZ_ORACLE_H
#define PORTEND_FUZZ_ORACLE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "explore/explorer.h"
#include "ir/program.h"

namespace portend::fuzz {

/** Oracle configuration (kept small: fuzzing wants throughput). */
struct OracleOptions
{
    std::uint64_t detection_seed = 1; ///< schedule seed (CLI --seed)
    int mp = 3;                       ///< primary paths at full budget
    int ma = 2;                       ///< alternate schedules per primary
    std::uint64_t max_steps = 200000; ///< per-run interpreter budget
    int executor_max_states = 64;     ///< symbolic fork cap

    /** Stage-3 explorer of the primary pipeline run (CLI --explore);
     *  deep mode cross-checks it against the other explorer. */
    explore::ExploreMode explore = explore::ExploreMode::Dpor;

    /**
     * Run the expensive metamorphic re-executions (determinism,
     * jobs invariance, k-monotonicity). The cheap checks always run.
     */
    bool deep = true;
};

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

/**
 * Serialize a verdict as the fuzz campaign's cache payload
 * (`portend-fuzz-verdict-v1`): a text header per field with
 * length-prefixed byte blocks, so multi-line members (trace, report)
 * round-trip exactly. deserializeVerdict is the strict inverse —
 * any structural mismatch yields nullopt (the campaign then simply
 * re-runs the oracle, which is always sound).
 */
std::string serializeVerdict(const OracleVerdict &v);
std::optional<OracleVerdict>
deserializeVerdict(const std::string &text,
                   std::string *error = nullptr);

} // namespace portend::fuzz

#endif // PORTEND_FUZZ_ORACLE_H
