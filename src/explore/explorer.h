/**
 * @file
 * Systematic post-race schedule exploration.
 *
 * Portend's stage 3 multiplies witnesses by running Ma alternate
 * executions per primary path. Sampling those schedules from a
 * seeded RNG alone silently burns budget on duplicate and
 * Mazurkiewicz-equivalent interleavings; the ScheduleExplorer runs
 * the samples, then continues with a systematic enumerator in the
 * spirit of dynamic partial-order reduction:
 *
 *  - every issued schedule is replayable: an explicit decision
 *    prefix applied by rt::GuidedPolicy, completed by a
 *    deterministic fallback;
 *  - each executed schedule is canonicalized to its Foata normal
 *    form over the observed dependence relation
 *    (canonicalSignature), so equivalent interleavings collapse
 *    onto one signature and the budget counts *distinct* classes;
 *  - new candidates come from DPOR-style backtracking: for every
 *    pair of conflicting accesses by different threads, reschedule
 *    the later thread at the decision point that ran the earlier
 *    one (or, when it was not yet enabled there, every other
 *    enabled thread — the persistent-set fallback rule), bounded by
 *    a preemption budget and pruned sleep-set style (a decision
 *    prefix is never issued twice);
 *  - candidates are generated lazily: record() queues each run
 *    (only the access window expansion reads), and next() expands
 *    queued runs in record order only when the frontier runs dry.
 *    Expansion only appends to a FIFO frontier and sees the same
 *    prefix-dedup set either way, so this issues exactly the
 *    schedules eager expansion would, in the same order.
 *
 * Opening phase: the explorer first issues the paper's Ma seeded
 * post-race samples (§3.4), seeds seed_base + 1 .. seed_base + Ma
 * in that order, and only then its systematic candidates. The
 * seeded phase always runs whole, so every schedule the sampler
 * would try is tried, and the systematic phase can only add
 * behaviors on top of it.
 *
 * The explorer is pure bookkeeping — it never executes anything and
 * is deterministic given the observations fed back to it, which is
 * why exploration results are byte-identical across --jobs values
 * and across sanitizer builds.
 */

#ifndef PORTEND_EXPLORE_EXPLORER_H
#define PORTEND_EXPLORE_EXPLORER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "rt/policy.h"

namespace portend::explore {

/**
 * One post-race schedule to execute.
 *
 * Exactly one shape per kind:
 *  - Trace: deterministically keep following the recorded trace
 *    (stage 1's single-alternate; never issued by an explorer);
 *  - Random: seed the state RNG and sample every decision;
 *  - Guided: apply @p prefix at successive post-race decision
 *    points, then a deterministic rotate fallback.
 */
struct PostSpec
{
    enum class Kind : std::uint8_t { Trace, Random, Guided };

    Kind kind = Kind::Trace;
    std::uint64_t seed = 0;             ///< Random only
    std::vector<rt::ThreadId> prefix;   ///< Guided only

    static PostSpec
    trace()
    {
        return PostSpec{};
    }

    static PostSpec
    random(std::uint64_t seed)
    {
        PostSpec s;
        s.kind = Kind::Random;
        s.seed = seed;
        return s;
    }

    static PostSpec
    guided(std::vector<rt::ThreadId> prefix)
    {
        PostSpec s;
        s.kind = Kind::Guided;
        s.prefix = std::move(prefix);
        return s;
    }
};

/**
 * Foata normal form of an observed schedule: events are layered by
 * their dependence depth and sorted within a layer (layer members
 * are pairwise independent, so the order is representation, not
 * behavior). Two executions get equal signatures iff their access
 * sequences are Mazurkiewicz-trace equivalent — reorderings of
 * independent accesses collapse, reorderings of conflicting
 * accesses do not. Layering is one pass, O(n log n): an event's
 * depth follows from its thread's previous event and, at its site,
 * the deepest earlier access (for a write) or write (for a read).
 */
std::string canonicalSignature(const rt::ScheduleObservation &obs);

/** FNV-1a digest of canonicalSignature, as 16 lowercase hex chars
 *  (the compact form stored in evidence and printed in reports).
 *  Hashes the signature text piece by piece without building it. */
std::string signatureHash(const rt::ScheduleObservation &obs);

/** Explorer configuration. */
struct ExplorerOptions
{
    /**
     * Schedule budget (the CLI's Ma): the number of *distinct*
     * interleavings to collect before stopping, and the number of
     * seeded runs of the opening phase.
     */
    int budget = 2;

    /**
     * Hard cap on executed runs, so a space with fewer classes than
     * the budget terminates. 0 = 4 * budget + 4.
     */
    int max_runs = 0;

    /**
     * Maximum injected preemptions per systematic candidate (each
     * backtrack adds one); candidates at the bound are run but not
     * expanded further.
     */
    int preemption_bound = 4;

    /** Seeded-phase seeds are seed_base + 1, seed_base + 2, ... */
    std::uint64_t seed_base = 0;

    /**
     * Issue the seeded opening phase before systematic candidates
     * (see the file comment). Tests disable this to measure pure
     * systematic coverage.
     */
    bool random_first = true;

    /**
     * Signature hashes already witnessed by earlier explorers (the
     * per-path budgeting used by multi-path analysis: each path's
     * explorer inherits its predecessors' classes, so distinct()
     * counts only globally-new interleaving classes and the budget
     * is shared across paths instead of multiplied by them).
     */
    std::set<std::string> known;
};

/**
 * Issues schedules via next() and learns from observations via
 * record(); see the file comment for the exploration strategy.
 *
 * Protocol: strictly alternate next() / record(obs) (record may be
 * skipped for runs that never reached the post-race phase — they
 * teach nothing and count as no class).
 */
class ScheduleExplorer
{
  public:
    explicit ScheduleExplorer(ExplorerOptions opts);

    /**
     * The next schedule to execute, or nullopt when the budget is
     * met, the run cap is hit, or the candidate space is exhausted.
     */
    std::optional<PostSpec> next();

    /**
     * Feed back what the schedule issued by the last next() did.
     * Takes the observation: below the preemption bound it keeps
     * the part expansion reads (the first kExpandWindow accesses
     * and their decisions) until next() needs new candidates.
     *
     * @return true when the run realized a class no earlier run of
     *         this explorer had witnessed (a *distinct* schedule)
     */
    bool record(rt::ScheduleObservation obs);

    /** Distinct equivalence classes witnessed so far. */
    int distinct() const { return distinct_; }

    /** Runs issued so far. */
    int runs() const { return runs_; }

    /** Signature hash computed by the most recent record(). */
    const std::string &lastSignature() const { return last_sig_; }

    /** True when next() returned nullopt with budget remaining
     *  because the candidate space was exhausted. */
    bool exhausted() const { return exhausted_; }

    /** All signature hashes witnessed (sorted; for tests/benches). */
    const std::set<std::string> &signatures() const { return seen_; }

    /**
     * Accesses of one run that expansion pairs up: candidate
     * generation is quadratic in this window, which guards against
     * pathological runs (spin loops under a random schedule).
     */
    static constexpr std::size_t kExpandWindow = 512;

  private:
    /** One not-yet-executed systematic schedule. */
    struct Candidate
    {
        std::vector<rt::ThreadId> prefix;
        int preemptions = 0;
    };

    /** A recorded run not yet expanded into candidates. */
    struct Pending
    {
        rt::ScheduleObservation obs;
        int preemptions = 0;
    };

    /** Expand pending runs, oldest first, until the frontier holds a
     *  candidate or nothing is pending. */
    void expandPending();

    /** Grow the frontier from one observed run. */
    void expand(const rt::ScheduleObservation &obs, int base_preempt);

    /** Enqueue a candidate unless its prefix was issued before. */
    void push(std::vector<rt::ThreadId> prefix, int preemptions);

    ExplorerOptions opts;
    std::deque<Pending> pending_;
    std::deque<Candidate> frontier;
    std::set<std::vector<rt::ThreadId>> issued_;
    std::set<std::string> seen_;
    std::string last_sig_;
    int random_issued_ = 0;
    int runs_ = 0;
    int distinct_ = 0;
    int last_preemptions_ = 0;
    bool exhausted_ = false;
};

} // namespace portend::explore

#endif // PORTEND_EXPLORE_EXPLORER_H
