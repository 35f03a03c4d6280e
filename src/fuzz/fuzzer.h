/**
 * @file
 * Fuzzing campaign driver.
 *
 * Fans program generation + oracle evaluation out with support/'s
 * parallelFor (one index per program, results merged in index
 * order), then sequentially minimizes and persists reproducers:
 *
 *  - every flagged program (an oracle disagreement) is shrunk with
 *    the delta-debugging minimizer until the same check still fails,
 *    and saved as a "disagreement" corpus entry;
 *  - the first program exhibiting each novel behavior signature is
 *    shrunk while the signature is preserved and saved as a
 *    "regression" exemplar — the seed corpus future PRs replay.
 *
 * Determinism contract: with a program budget (--budget), the
 * campaign's summary bytes and every corpus file are a pure function
 * of (fuzz seed, detection seed, budget, generator knobs) — worker
 * count and wall-clock never leak in. Wall-clock mode (--seconds)
 * trades that for a time box: the program count then depends on the
 * host, which is why the acceptance workflow pins --budget.
 */

#ifndef PORTEND_FUZZ_FUZZER_H
#define PORTEND_FUZZ_FUZZER_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"

namespace portend::fuzz {

/** Deep (metamorphic re-execution) oracle on every Nth index. */
constexpr int kDeepEvery = 4;

/** Cap on new regression exemplars minimized per campaign. */
constexpr int kMaxNewEntries = 16;

/** Campaign configuration. */
struct FuzzOptions
{
    int budget = 200;       ///< programs to generate (when > 0)
    double seconds = 0.0;   ///< wall-clock box; overrides budget when > 0
    std::uint64_t fuzz_seed = 1;      ///< generation seed (--fuzz-seed)
    std::uint64_t detection_seed = 1; ///< schedule seed (--seed)
    int jobs = 1;           ///< worker threads (0 = hardware)
    std::string corpus_dir; ///< "" = do not write reproducers

    /**
     * Campaign directory ("" = ephemeral run, nothing persisted).
     * When set, every index's oracle verdict is stored in a
     * campaign::VerdictCache under its signature — program
     * fingerprint + oracle-config hash (seed, budgets, explorer,
     * deep flag); the trace-hash slot is 0 because the oracle owns
     * its own detection run — and journaled on completion. A re-run
     * or resumed campaign regenerates each program (generation is
     * cheap and deterministic) but skips the oracle for every
     * already-cached signature, which is where all the time goes.
     */
    std::string campaign_dir;

    GeneratorOptions gen;
    OracleOptions oracle; ///< seed/deep overridden per program

    /**
     * Test seam: replaces runOracle as the campaign's judge (null =
     * the real oracle). Lets tests inject a known-buggy oracle and
     * assert the flag -> minimize -> persist pipeline end to end.
     */
    std::function<OracleVerdict(const ir::Program &,
                                const OracleOptions &)>
        judge;
};

/** One minimized finding (oracle disagreement). */
struct FuzzFinding
{
    std::uint64_t index = 0;  ///< campaign index that found it
    std::string check;        ///< failed oracle check
    std::string detail;       ///< failure description
    ProgramRecipe minimized;  ///< shrunk reproducer recipe
    std::string entry_name;   ///< corpus entry written ("" if none)
};

/** Campaign outcome. */
struct FuzzResult
{
    std::uint64_t fuzz_seed = 0;
    std::uint64_t detection_seed = 0;
    std::string corpus_dir;
    std::string campaign_dir;

    int programs = 0;
    int verifier_clean = 0;
    int flagged = 0;          ///< programs with >= 1 failed check
    int regression_entries = 0;
    int disagreement_entries = 0;

    std::map<std::string, int> idiom_counts;   ///< programs per idiom
    std::map<std::string, int> class_counts;   ///< verdicts per class
    std::map<std::string, int> outcome_counts; ///< detection outcomes
    std::map<std::string, int> check_runs;     ///< check -> times run
    std::map<std::string, int> check_failures; ///< check -> failures
    std::map<std::string, int> baseline_counts;

    /** Campaign persistence accounting (0 when campaign_dir unset).
     *  cache_hits = indices whose oracle run was skipped entirely;
     *  journal_replays = completed-unit records found at open. */
    int cache_hits = 0;
    int journal_replays = 0;

    std::vector<FuzzFinding> findings;

    /** The programs' pipeline shards (OracleVerdict::metrics),
     *  merged in index order; cache hits contribute none. */
    obs::MetricsShard metrics;

    double seconds = 0.0; ///< wall clock; never in summaryText()

    /** True when every oracle check of every program passed. */
    bool clean() const { return flagged == 0; }

    /** Deterministic, wall-clock-free campaign summary. */
    std::string summaryText() const;
};

/** Run one campaign. */
FuzzResult runFuzz(const FuzzOptions &opts);

} // namespace portend::fuzz

#endif // PORTEND_FUZZ_FUZZER_H
