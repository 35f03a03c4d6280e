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

    /**
     * The work this race's classification performed (Fig. 9 data):
     * the `classify.*` counters for steps, preemptions, symbolic
     * branches, paths, schedules, distinct schedules, forked states
     * and solver queries. Its duration is the `classify/classify-race`
     * span's.
     */
    obs::MetricsShard metrics;

    /** True for verdicts the paper counts as harmful. */
    bool
    harmful() const
    {
        return cls == RaceClass::SpecViolated;
    }
};

/**
 * Registry view of one finished verdict: merges its `metrics`, adds
 * the cluster, verdict-class and k-witness tallies and observes the
 * per-cluster step and distinct-schedule histograms.
 */
void foldVerdict(const Classification &c, obs::MetricsShard &shard);

} // namespace portend::core

#endif // PORTEND_PORTEND_CLASSIFY_H
