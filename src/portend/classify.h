/**
 * @file
 * Portend's four-category race taxonomy (paper §2.3, Fig. 1).
 *
 * True races are classified as:
 *  - "spec violated":      some ordering crashes, deadlocks, hangs,
 *                          or violates a semantic predicate;
 *  - "output differs":     the orderings can produce different
 *                          program output;
 *  - "k-witness harmless": k path x schedule combinations witnessed
 *                          equivalent (symbolically compared) output;
 *  - "single ordering":    only one ordering is possible (ad-hoc
 *                          synchronization), including false-positive
 *                          reports from imperfect detectors.
 */

#ifndef PORTEND_PORTEND_CLASSIFY_H
#define PORTEND_PORTEND_CLASSIFY_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/observe.h"

namespace portend::core {

/** Top-level classification category. */
enum class RaceClass : std::uint8_t {
    SpecViolated,
    OutputDiffers,
    KWitnessHarmless,
    SingleOrdering,
    Unclassified, ///< analysis could not reproduce the race
};

/** Every RaceClass value, in paper order (Unclassified last). */
inline constexpr RaceClass kAllRaceClasses[] = {
    RaceClass::SpecViolated,     RaceClass::OutputDiffers,
    RaceClass::KWitnessHarmless, RaceClass::SingleOrdering,
    RaceClass::Unclassified,
};

/** Printable category name (paper spelling). */
const char *raceClassName(RaceClass c);

/**
 * Inverse of raceClassName: parse a paper-spelling category name.
 * Returns std::nullopt for unknown names.
 */
std::optional<RaceClass> raceClassFromName(const std::string &name);

/** What kind of specification violation was observed. */
enum class ViolationKind : std::uint8_t {
    None,
    Crash,          ///< memory error / division by zero
    Deadlock,
    InfiniteLoop,   ///< loop with an invariant exit condition
    SemanticAssert, ///< developer-provided predicate violated
    ReplayFailure,  ///< alternate not enforceable and ad-hoc
                    ///< detection disabled (baseline behaviour)
};

/** Printable violation-kind name. */
const char *violationKindName(ViolationKind v);

/**
 * Work performed during one race's classification (Fig. 9 data).
 *
 * `seconds` is the cluster's own wall-clock analysis time; it varies
 * run to run and is therefore never printed in verdict reports
 * (which must be byte-identical across --jobs).
 */
struct AnalysisStats
{
    std::uint64_t preemptions = 0;     ///< scheduling decisions taken
    std::uint64_t sym_branches = 0;    ///< symbolic decisions seen
    std::uint64_t steps = 0;           ///< instructions interpreted
    int paths_explored = 0;            ///< primary paths analyzed
    int schedules_explored = 0;        ///< alternate schedules run

    /**
     * Mazurkiewicz-inequivalent post-race interleavings witnessed
     * during stage 3 (canonical-signature distinct; see explore/).
     * Always <= schedules_explored; the gap is budget the random
     * explorer burned on equivalent schedules.
     */
    int distinct_schedules = 0;

    int states_created = 0;            ///< symbolic states forked
    std::uint64_t solver_queries = 0;  ///< checkSat calls issued
    double seconds = 0.0;              ///< monotonic analysis time

    /**
     * Fold the deterministic counters into a metrics shard (the
     * registry view of this ledger). The duration field stays out
     * on purpose: shards feed `--metrics-out`, which must be
     * byte-identical across --jobs values and runs.
     */
    void foldInto(obs::MetricsShard &shard) const;
};

/** One named input binding of an evidence witness. */
struct WitnessInput
{
    std::string name;
    std::int64_t value = 0;

    bool
    operator==(const WitnessInput &o) const
    {
        return name == o.name && value == o.value;
    }
};

/** The verdict for one race, with evidence (paper §3.6). */
struct Classification
{
    RaceClass cls = RaceClass::Unclassified;
    ViolationKind viol = ViolationKind::None;

    /** Number of path x schedule witnesses (k-witness verdicts). */
    int k = 0;

    /**
     * Whether the concrete post-race states of primary and
     * alternate differed (the Record/Replay-Analyzer criterion;
     * Table 3's "states same/differ" columns).
     */
    bool states_differ = false;

    /** Human-readable explanation of the verdict. */
    std::string detail;

    /** For "output differs": where and how the outputs diverged. */
    std::string output_diff;

    /** Inputs reproducing the harmful/divergent behaviour. */
    std::vector<std::int64_t> evidence_inputs;

    /**
     * Solver-concretized named input witness: the bindings for the
     * inputs that were symbolic on the evidence path. Non-empty only
     * when the verdict came from multi-path analysis with named
     * symbolic inputs; the same values appear (with all other env
     * reads) inside evidence_inputs, which replay consumes.
     */
    std::vector<WitnessInput> evidence_witness;

    /** Post-race schedule seed reproducing the behaviour. */
    std::uint64_t evidence_seed = 0;

    /**
     * Explorer-issued post-race decision prefix reproducing the
     * behaviour (rt::GuidedPolicy input). Non-empty only for
     * verdicts found by a dpor-guided schedule; then evidence_seed
     * is 0 and replay is prefix + deterministic fallback.
     */
    std::vector<int> evidence_schedule;

    /**
     * Canonical signature hash of the post-race interleaving behind
     * the verdict (explore::signatureHash): names *which* equivalence
     * class of schedules exhibits the behaviour. Empty for verdicts
     * whose evidence is the stage-1 trace-following alternate or a
     * primary-ordering violation.
     */
    std::string evidence_signature;

    /** True when the harmful ordering is the alternate one. */
    bool evidence_alternate = false;

    AnalysisStats stats;

    /** True for verdicts the paper counts as harmful. */
    bool
    harmful() const
    {
        return cls == RaceClass::SpecViolated;
    }
};

/**
 * Registry view of one finished verdict: the AnalysisStats ledger
 * plus the verdict-class tally and k-witness count, folded into a
 * per-cluster shard (merged in cluster order by the scheduler).
 */
void foldVerdict(const Classification &c, obs::MetricsShard &shard);

} // namespace portend::core

#endif // PORTEND_PORTEND_CLASSIFY_H
