/**
 * @file
 * Portend's race analysis engine.
 *
 * Implements the paper's analysis pipeline per race:
 *
 *  1. Single-pre/single-post analysis (Algorithm 1): replay the
 *     recorded trace to just before the first racing access, take
 *     the pre-race checkpoint, finish the primary, then enforce the
 *     alternate ordering from the checkpoint and observe the
 *     consequences (crash, deadlock, hang/ad-hoc sync, output
 *     difference).
 *  2. Multi-path analysis (Algorithm 2): explore up to Mp primary
 *     paths that still satisfy the schedule trace but take different
 *     input-dependent branches (symbolic inputs), recording
 *     symbolic outputs.
 *  3. Multi-schedule analysis: for each primary, run the post-race
 *     schedules the explorer issues (Ma of them) and compare their
 *     concrete outputs against the primary's symbolic outputs.
 *
 * Stages 2 and 3 run as one loop over primary x schedule pairs. The
 * primaries are the cleanly exited symbolic paths, or stage 1's
 * concrete primary when only multi-schedule is on; the schedules are
 * the explorer's, or the one trace-following alternate without
 * multi-schedule. Every pair runs Algorithm 1: the first decisive
 * pair (spec violated, output differs) sets the verdict, and
 * otherwise each matching pair counts a witness (under the
 * explorer, only a pair that realized a new interleaving class).
 *
 * The verdict is one of the four taxonomy categories; "k-witness
 * harmless" verdicts carry k, the number of successful path x
 * schedule witnesses (stage 1's pair included).
 *
 * The settable dials are the paper's Mp and Ma plus the stage
 * switches, detector and budgets of PortendOptions. The
 * count of positional symbolic inputs and the alternate's timeout
 * factor are constants (kMaxSymbolicInputs, kTimeoutFactor), as are
 * the explorer's preemption bound, the executor's fork depth and
 * the solver's per-symbol candidate cap.
 */

#ifndef PORTEND_PORTEND_ANALYZER_H
#define PORTEND_PORTEND_ANALYZER_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "explore/explorer.h"
#include "ir/program.h"
#include "portend/classify.h"
#include "race/report.h"
#include "replay/checkpoint.h"
#include "replay/replayer.h"
#include "replay/trace.h"
#include "rt/interpreter.h"
#include "rt/semantics.h"
#include "rt/staticinfo.h"

namespace portend::core {

/**
 * A semantic predicate: invoked on every event of an analysis run;
 * returns a non-empty violation description when the "high level"
 * specification is broken (paper §3.5, e.g. "fmm timestamps must
 * not go backwards"). Defined in rt/semantics.h (with its monitor)
 * so the replay layer's checkpoint ladder can snapshot and restore
 * monitor state; aliased here for the public API.
 */
using SemanticPredicate = rt::SemanticPredicate;

/** Which race detector feeds the classifier. */
enum class DetectorKind : std::uint8_t {
    HappensBefore,        ///< vector-clock detector (default)
    HappensBeforeNoMutex, ///< HB blind to mutexes (imperfect detector)
    Lockset,              ///< Eraser-style lockset detector
};

/** Printable detector name (CLI and manifest spelling). */
const char *detectorName(DetectorKind d);

/**
 * Inverse of detectorName: parse a detector name. Returns
 * std::nullopt for unknown names.
 */
std::optional<DetectorKind> detectorFromName(const std::string &name);

/**
 * Inputs made symbolic in stage 2 when PortendOptions::sym_inputs
 * names none: the first this many Input reads of a run.
 */
constexpr int kMaxSymbolicInputs = 2;

/**
 * Alternate step budget multiplier: an alternate may run this many
 * times the primary's post-race steps (plus 2,000) before it counts
 * as timed out.
 */
constexpr std::uint64_t kTimeoutFactor = 5;

/** Portend configuration (the paper's dials). */
struct PortendOptions
{
    int mp = 5;                 ///< primary paths (Mp)

    /**
     * Alternate schedules per primary (Ma), a *distinct-schedule*
     * budget: stage 3 runs Ma seeded post-race samples, then keeps
     * issuing systematic schedules until Ma Mazurkiewicz-inequivalent
     * interleavings were witnessed (or the space/run cap is
     * exhausted).
     */
    int ma = 2;
    bool adhoc_detection = true;   ///< classify hangs as single ordering
    bool multi_path = true;        ///< enable stage 2
    bool multi_schedule = true;    ///< enable stage 3

    /**
     * Named symbolic-input selection for stage 2 (CLI --sym-input).
     * When non-empty, only Input instructions whose label matches an
     * entry become symbolic (kMaxSymbolicInputs does not apply),
     * stage 3's distinct-schedule budget is shared across primary
     * paths, and decisive verdicts record a named witness
     * (Classification::evidence_witness). Empty = legacy positional
     * selection.
     */
    std::vector<rt::SymInputSpec> sym_inputs;
    std::uint64_t max_steps = 2000000; ///< absolute step budget

    /**
     * A cache namespace, not an analysis dial: no pipeline run reads
     * it and no CLI flag sets it. campaign::configHash hashes it and
     * a campaign manifest carries it, so configurations that differ
     * only here cache their verdicts under different signatures.
     */
    std::uint64_t detection_seed = 1;
    DetectorKind detector = DetectorKind::HappensBefore;
    std::vector<SemanticPredicate> semantic_predicates;
    int executor_max_states = 512;

    /**
     * Classification worker threads used by the scheduler
     * (0 = one per hardware thread). Purely a throughput dial:
     * verdicts are byte-identical for every value.
     */
    int jobs = 1;
};

/** Event sink evaluating semantic predicates (see rt/semantics.h). */
using SemanticMonitor = rt::SemanticMonitor;

/**
 * Schedule policy for multi-path primary exploration: follows the
 * recorded trace strictly until the racing accesses have happened
 * (pruning divergent paths, Fig. 5), then tolerantly.
 */
class PrimarySearchPolicy : public rt::SchedulePolicy
{
  public:
    PrimarySearchPolicy(const replay::ScheduleTrace &trace,
                        const race::RaceReport &race)
        : trace(trace), race(race)
    {}

    rt::ThreadId pick(const rt::VmState &state,
                      const std::vector<rt::ThreadId> &runnable) override;

    /** True once both racing accesses reached their occurrence. */
    static bool racePassed(const rt::VmState &state,
                           const race::RaceReport &race);

  private:
    const replay::ScheduleTrace &trace;
    const race::RaceReport &race;
};

/**
 * Classifies one race at a time; construct once per program (or one
 * per scheduler worker, sharing one StaticInfo).
 *
 * Thread compatibility: classify() is const and touches only the
 * (immutable) program, the shared read-only StaticInfo, and
 * analyzer-local interpreters/solvers, so distinct RaceAnalyzer
 * instances may classify concurrently on different threads.
 */
class RaceAnalyzer
{
  public:
    /** Own a freshly computed StaticInfo (single-analyzer use). */
    RaceAnalyzer(const ir::Program &prog, const PortendOptions &opts);

    /**
     * Share an already-computed StaticInfo (scheduler workers):
     * @p shared_static must outlive the analyzer and is only read.
     */
    RaceAnalyzer(const ir::Program &prog, const PortendOptions &opts,
                 const rt::StaticInfo &shared_static);

    /**
     * Classify @p race given the recorded @p trace of the execution
     * that exposed it.
     *
     * @param ladder optional shared replay-prefix checkpoint ladder
     *        built over the same (program, trace, options); the
     *        analyzer forks pre-race states from its rung instead of
     *        replaying the prefix from step 0. Verdicts and their
     *        counters are byte-identical with or without a ladder —
     *        only wall-clock time changes.
     */
    Classification
    classify(const race::RaceReport &race,
             const replay::ScheduleTrace &trace,
             const replay::CheckpointLadder *ladder = nullptr) const;

    /**
     * The interpreter options every replay-based analysis run uses
     * (and a CheckpointLadder build must match): preempt on every
     * memory access, @p opts' step budget, default RNG seed.
     */
    static rt::ExecOptions replayOptions(const PortendOptions &opts);

    /** Result of replaying a classification's evidence (§3.6). */
    struct EvidenceReplay
    {
        rt::RunOutcome outcome = rt::RunOutcome::Running;
        std::string detail;
        rt::OutputLog output;
    };

    /**
     * Deterministically re-execute the interleaving a verdict's
     * evidence describes (inputs + enforced alternate ordering +
     * post-race schedule seed). For a "spec violated" verdict the
     * replay reproduces the crash/deadlock/hang; this is the
     * replayable trace the paper hands to the developer's debugger.
     */
    EvidenceReplay replayEvidence(const race::RaceReport &race,
                                  const replay::ScheduleTrace &trace,
                                  const Classification &verdict) const;

  private:
    /**
     * classify() without its solver-query count: runs the stages and
     * writes the verdict and its counters into @p c. Stage 2 leaves its executor in
     * @p ex, whose solver also answers stage 3's output comparisons.
     */
    void analyze(const race::RaceReport &race,
                 const replay::ScheduleTrace &trace,
                 const replay::CheckpointLadder *ladder,
                 Classification &c,
                 std::optional<exec::Executor> &ex) const;

    /** Outcome of one primary/alternate pair (Algorithm 1). */
    struct SingleResult
    {
        enum class Kind {
            SpecViol,
            OutDiff,
            OutSame,
            SingleOrd,
            NotReached, ///< replay did not reach the race
            Skipped,    ///< alternate unenforceable on this path
        };

        Kind kind = Kind::NotReached;
        ViolationKind viol = ViolationKind::None;
        std::string detail;
        std::string output_diff;
        bool states_differ = false;
        std::uint64_t primary_steps = 0;
        rt::OutputLog alternate_out;

        /**
         * What the alternate did after enforcement (Random/Guided
         * post specs only): the explorer's feedback. Valid only when
         * alternate_enforced — a starved or never-exercised alternate
         * witnessed no post-race schedule and must not be recorded.
         */
        rt::ScheduleObservation observation;
        bool alternate_enforced = false;
    };

    /** Full Algorithm 1 on concrete inputs. */
    SingleResult singleClassify(const race::RaceReport &race,
                                const replay::ScheduleTrace &trace,
                                const std::vector<std::int64_t> &inputs,
                                const explore::PostSpec &post,
                                const replay::CheckpointLadder *ladder,
                                obs::MetricsShard &metrics) const;

    /**
     * Alternate-only analysis for a multi-path primary: replays
     * concretized inputs to the pre-race point, enforces the
     * alternate ordering, and returns its outcome and outputs.
     * The post-race schedule is whatever @p post prescribes —
     * stage 3 feeds explorer-issued specs through here.
     */
    SingleResult runAlternate(const race::RaceReport &race,
                              const replay::ScheduleTrace &trace,
                              const std::vector<std::int64_t> &inputs,
                              const explore::PostSpec &post,
                              std::uint64_t budget_steps,
                              const replay::CheckpointLadder *ladder,
                              obs::MetricsShard &metrics) const;

    /**
     * The ladder rung for @p race's pre-race point, or nullptr when
     * @p ladder is absent, was built over different inputs, or its
     * rung lies beyond this analyzer's step budget (a tighter budget
     * must time out exactly as a from-0 replay would).
     */
    const replay::CheckpointLadder::Rung *
    usableRung(const replay::CheckpointLadder *ladder,
               const race::RaceReport &race,
               const std::vector<std::int64_t> &inputs) const;

    /**
     * The ladder's end state for a stage-1 primary resumed from
     * @p rung, or nullptr when there is no rung (so no proof that
     * this primary is the ladder's replay), no end, or this
     * analyzer's own run could end elsewhere: a timed-out end only
     * under the budget it ran under, any other end only when every
     * budget check of its run passes under this analyzer's budget.
     */
    const replay::CheckpointLadder::End *
    usableEnd(const replay::CheckpointLadder *ladder,
              const replay::CheckpointLadder::Rung *rung) const;

    /**
     * Core of Algorithm 1 lines 5-22: enforce the alternate ordering
     * from a pre-race state and observe the consequences.
     *
     * @param pre            state stopped just before the first
     *                       racing access
     * @param post_primary   primary's post-race snapshot for the
     *                       state-diff criterion (may be null)
     * @param post_trace     original trace for deterministic
     *                       post-race scheduling (null = policy only)
     * @param primary_second_count  dynamic executions of the second
     *                       racing instruction in the primary; when
     *                       non-zero and the alternate re-executes
     *                       it more often, the second thread looped
     *                       back through its racing access — the
     *                       busy-wait signature of ad-hoc
     *                       synchronization ("single ordering")
     */
    SingleResult runAlternateFromState(
        const rt::VmState &pre, const race::RaceReport &race,
        const std::vector<std::int64_t> &inputs,
        const explore::PostSpec &post,
        std::uint64_t primary_total_steps,
        const rt::VmState *post_primary,
        const replay::ScheduleTrace *post_trace,
        std::uint64_t primary_second_count, obs::MetricsShard &metrics) const;

    /** Base interpreter options for analysis runs. */
    rt::ExecOptions baseOptions() const;

    /**
     * Infinite-loop vs ad-hoc-sync diagnosis at a timeout: true when
     * no live thread can write the cells the spinners read.
     */
    bool diagnoseInfiniteLoop(const rt::VmState &state) const;

    /** Map a final run outcome to a violation kind. */
    ViolationKind violationOf(rt::RunOutcome o) const;

    /**
     * Attribution check: does the crash at the final state's
     * outcome pc involve the racing cell's global in the value
     * chains of its operands? A crash whose faulting data has
     * nothing to do with the analyzed race is an *unrelated* bug
     * surfaced by schedule perturbation; the paper queues such
     * finds as separate reports (§6) rather than blaming the race
     * under analysis. Deadlocks and hangs are global conditions and
     * are always attributed.
     */
    bool crashInvolvesRaceCell(const rt::VmState &final_state,
                               const race::RaceReport &race) const;

    /** Count a run's steps, preemptions and symbolic branches into
     *  @p metrics. */
    static void absorbRun(obs::MetricsShard &metrics,
                          const rt::VmState &s);

    const ir::Program &prog;
    PortendOptions opts;

    /** Set by the owning constructor only; workers leave it null. */
    std::unique_ptr<rt::StaticInfo> owned_static;

    /** The may-write facts consulted during classification
     *  (read-only; points at owned_static or the shared copy). */
    const rt::StaticInfo &static_info;
};

} // namespace portend::core

#endif // PORTEND_PORTEND_ANALYZER_H
