/**
 * @file
 * Job-based parallel classification scheduler.
 *
 * Portend's cost is dominated by per-race multi-path multi-schedule
 * analysis, and race clusters are classified independently — the
 * same independence the paper exploits with Cloud9-style parallel
 * exploration. The scheduler fans the clusters of one detection run
 * out to a support/ thread pool: each job owns a private
 * RaceAnalyzer (interpreters, solver, RNG state) while all workers
 * share the program, one read-only rt::StaticInfo computed up
 * front, and one read-only replay::CheckpointLadder built per batch
 * (a single replay of the recorded trace caches every cluster's
 * pre-race checkpoint; workers fork copy-on-write states from the
 * rungs instead of replaying the prefix from step 0).
 *
 * Determinism contract: verdicts are merged by cluster index, never
 * by completion order, and per-cluster budgets are sliced from the
 * global budget *before* any job runs (the cluster count is known up
 * front), so a run with `--jobs N` is byte-identical to `--jobs 1`.
 * The stage-3 schedule explorer (see explore/) is job-local state
 * driven purely by its own cluster's runs, so its schedules — and
 * the distinct-interleaving ledger sliced per cluster from the Ma
 * budget — are jobs-invariant too.
 * The ladder preserves this: rungs are exact replay prefixes, so
 * verdicts and ledger stats match a ladder-less run byte for byte.
 * The only cross-thread writes are the per-cluster verdict slots,
 * which are disjoint by index; batch accounting is summed from them
 * after the join.
 *
 * Since the campaign refactor the batch is expressed as *work
 * units*: classifyAll() materializes one ClusterUnit per cluster —
 * budget slice applied, ladder reference attached — and n workers
 * drain them from a campaign::Queue (the same claim-by-cursor
 * primitive the campaign engine uses one level up for whole
 * programs). The unit list is fixed before any worker starts, which
 * is exactly why slicing is jobs-invariant. The calling thread is
 * one of the n workers; the other n − 1 are helper threads it keeps
 * across batches (see scheduler.cc).
 */

#ifndef PORTEND_PORTEND_SCHEDULER_H
#define PORTEND_PORTEND_SCHEDULER_H

#include <cstdint>
#include <vector>

#include "portend/analyzer.h"
#include "race/report.h"
#include "replay/trace.h"
#include "rt/staticinfo.h"
#include "support/observe.h"

namespace portend::core {

/** One classified race cluster. */
struct PortendReport
{
    race::RaceCluster cluster;
    Classification classification;
};

/**
 * Aggregate accounting for one classification batch — since PR 8 a
 * *view* over the metrics registry: every counter below is read back
 * from the batch's merged MetricsShard after the workers joined
 * (only `jobs` and `seconds`, which must stay out of the registry
 * for determinism, are filled directly).
 */
struct SchedulerStats
{
    std::uint64_t steps = 0;        ///< instructions interpreted
    std::uint64_t preemptions = 0;  ///< scheduling decisions taken
    std::uint64_t sym_branches = 0; ///< symbolic decisions seen
    int states_created = 0;         ///< symbolic states forked
    int paths_explored = 0;         ///< primary paths analyzed
    int schedules_explored = 0;     ///< alternate schedules run

    /**
     * Distinct (Mazurkiewicz-inequivalent) post-race interleavings
     * across all clusters — what the batch's Ma budget actually
     * bought. The per-cluster Ma dial is a *distinct*-schedule
     * budget under the dpor explorer, so this ledger entry is the
     * one to compare across explorers at equal budget.
     */
    int distinct_schedules = 0;
    std::uint64_t solver_queries = 0; ///< checkSat calls issued
    int clusters = 0;               ///< jobs executed
    int jobs = 1;                   ///< worker threads used
    double seconds = 0.0;           ///< batch wall-clock time

    /** Checkpoint-ladder accounting (see replay/checkpoint.h). */
    int ladder_rungs = 0;           ///< pre-race checkpoints cached
    std::uint64_t ladder_steps = 0; ///< steps of the one build replay
    std::uint64_t ladder_covered_steps = 0; ///< prefix steps saved
};

/**
 * One classification work unit: a cluster index plus everything the
 * worker claiming it needs — the pre-sliced option set (budget
 * ladder moved behind the unit boundary, so a worker never consults
 * global budgets). Units are immutable once the batch queue is
 * built.
 */
struct ClusterUnit
{
    std::size_t index = 0; ///< cluster (and verdict slot) index
    PortendOptions opts;   ///< global budgets already sliced in
};

/**
 * Fans race clusters out to worker-local analyzers and merges the
 * verdicts back in deterministic cluster order.
 */
class ClassificationScheduler
{
  public:
    /**
     * @param prog         program under test (outlives the scheduler)
     * @param opts         analysis configuration (copied); opts.jobs
     *                     picks the worker count (0 = hardware
     *                     concurrency)
     * @param static_info  shared read-only static analysis (outlives
     *                     the scheduler)
     */
    ClassificationScheduler(const ir::Program &prog,
                            PortendOptions opts,
                            const rt::StaticInfo &static_info);

    /** Resolved worker count (opts.jobs with 0 mapped to hardware). */
    int jobs() const;

    /**
     * Classify every cluster's representative against @p trace.
     * Reports come back in the order of @p clusters regardless of
     * which worker finished first.
     */
    std::vector<PortendReport>
    classifyAll(const std::vector<race::RaceCluster> &clusters,
                const replay::ScheduleTrace &trace);

    /** Accounting for the most recent classifyAll(). */
    const SchedulerStats &stats() const { return stats_; }

    /**
     * The most recent batch's merged metrics shard: per-cluster
     * worker shards folded in cluster index order, plus the ladder
     * accounting. Deterministic across --jobs values and runs.
     */
    const obs::MetricsShard &metrics() const { return shard_; }

    /**
     * The option set classifyAll() hands the job for cluster
     * @p index of @p n_clusters: the global step/state budgets
     * sliced into fixed per-cluster shares. Division remainders are
     * distributed deterministically — the first `total % n` clusters
     * receive one extra unit — so the slices sum back to the exact
     * global budget instead of silently dropping up to n-1 units
     * (exposed for tests).
     */
    PortendOptions taskOptions(std::size_t n_clusters,
                               std::size_t index) const;

    /**
     * The batch's work-unit list: one ClusterUnit per cluster, in
     * cluster order, each carrying its taskOptions() slice. Built
     * before any worker starts (exposed for tests).
     */
    std::vector<ClusterUnit> makeUnits(std::size_t n_clusters) const;

  private:
    const ir::Program &prog;
    PortendOptions opts;
    const rt::StaticInfo &static_info;
    SchedulerStats stats_;
    obs::MetricsShard shard_;
};

} // namespace portend::core

#endif // PORTEND_PORTEND_SCHEDULER_H
