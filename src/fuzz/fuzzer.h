/**
 * @file
 * Fuzzing campaign driver.
 *
 * One loop of 16 x jobs batches (kBatchPerJob) for both stop rules:
 * each batch fans program generation + oracle evaluation out with
 * support/'s parallelFor (one index per program); once it joins, its
 * results are folded in index order, their reproducers minimized and
 * persisted sequentially, and the batch is dropped:
 *
 *  - every flagged program (an oracle disagreement) is shrunk with
 *    the delta-debugging minimizer until the same check still fails,
 *    and saved as a "disagreement" corpus entry;
 *  - the first program exhibiting each novel behavior signature is
 *    shrunk while the signature is preserved and saved as a
 *    "regression" exemplar, the seed corpus `corpus run` replays,
 *    until kMaxNewEntries are kept; the novel signatures past that
 *    cap are counted in the summary's corpus line.
 *
 * Determinism contract: the campaign's summary bytes and every
 * corpus file are a pure function of (fuzz seed, program count) —
 * worker count, wall-clock and the working directory never leak
 * in. Programs are generated under the default GeneratorOptions and
 * judged under the dpor explorer. Memory stays bounded by one batch
 * whatever the stop rule. With a program budget (--budget) the count
 * is the budget, the last batch holding what is left of it.
 * Wall-clock mode (--seconds) runs whole batches until the box is
 * spent, and the box covers minimization too. Its program count
 * depends on the host, which is why the acceptance workflow pins
 * --budget; its summary and corpus equal those of --budget at that
 * count.
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

/**
 * Programs per batch and worker: a batch judges kBatchPerJob x jobs
 * programs before it is folded and dropped. Each batch ends in a
 * join where workers idle until its slowest program finishes; at 16
 * per worker that idle time no longer costs wall clock against one
 * fan-out over the whole budget, at 4 it did.
 */
constexpr int kBatchPerJob = 16;

/** Cap on new regression exemplars minimized per campaign. */
constexpr int kMaxNewEntries = 16;

/** Campaign configuration. */
struct FuzzOptions
{
    int budget = 200;       ///< programs to generate (when > 0)
    double seconds = 0.0;   ///< wall-clock box; overrides budget when > 0
    std::uint64_t fuzz_seed = 1; ///< generation seed (--fuzz-seed)
    int jobs = 1;           ///< worker threads (0 = hardware)
    std::string corpus_dir; ///< "" = do not write reproducers

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
    std::string corpus_dir;

    int programs = 0;
    int verifier_clean = 0;
    int flagged = 0;          ///< programs with >= 1 failed check
    int regression_entries = 0;
    int disagreement_entries = 0;
    /** Novel signatures of clean programs seen after kMaxNewEntries
     *  exemplars were kept, so not minimized or persisted (0 when
     *  corpus_dir is unset). */
    int signatures_over_cap = 0;

    std::map<std::string, int> idiom_counts;   ///< programs per idiom
    std::map<std::string, int> class_counts;   ///< verdicts per class
    std::map<std::string, int> outcome_counts; ///< detection outcomes
    std::map<std::string, int> check_runs;     ///< check -> times run
    std::map<std::string, int> check_failures; ///< check -> failures
    std::map<std::string, int> baseline_counts;

    std::vector<FuzzFinding> findings;

    /** The programs' pipeline shards (OracleVerdict::metrics),
     *  merged as each batch is folded. */
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
