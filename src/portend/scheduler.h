/**
 * @file
 * Job-based parallel classification scheduler.
 *
 * Portend's cost is dominated by per-race multi-path multi-schedule
 * analysis, and race clusters are classified independently — the
 * same independence the paper exploits with Cloud9-style parallel
 * exploration. The scheduler fans the clusters of one detection run
 * out with support/parallel.h's parallelFor: each cluster gets a
 * private RaceAnalyzer (interpreters, solver, RNG state) while all
 * workers share the program, one read-only rt::StaticInfo computed
 * up front, and one read-only replay::CheckpointLadder built per
 * batch (a single replay of the recorded trace caches every
 * cluster's pre-race checkpoint; workers fork copy-on-write states
 * from the rungs instead of replaying the prefix from step 0).
 *
 * Determinism contract: verdicts are merged by cluster index, never
 * by completion order, and every cluster runs under the batch's own
 * options, so a run with `--jobs N` is byte-identical to `--jobs 1`.
 * The stage-3 schedule explorer (see explore/) is job-local state
 * driven purely by its own cluster's runs, so its schedules — and
 * the distinct-interleaving ledger each cluster fills up to its Ma
 * budget — are jobs-invariant too.
 * The ladder preserves this: rungs are exact replay prefixes, so
 * verdicts and ledger stats match a ladder-less run byte for byte.
 * The only cross-thread writes are the per-cluster verdict slots,
 * which are disjoint by index; batch accounting is summed from them
 * after the join.
 *
 * The batch is a list of *work units*: classifyAll() materializes
 * one ClusterUnit per cluster before any worker starts, and
 * parallelFor's workers claim them by index. The calling thread is
 * one of the n workers; the other n − 1 are helper threads it keeps
 * across batches.
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
 * One classification work unit: a cluster index plus the option set
 * the worker claiming it classifies under. Units are immutable once
 * the batch's unit list is built.
 */
struct ClusterUnit
{
    std::size_t index = 0; ///< cluster (and verdict slot) index
    PortendOptions opts;   ///< the batch's options
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

    /**
     * The most recent batch's merged metrics shard: per-cluster
     * worker shards folded in cluster index order, plus the ladder
     * accounting. Deterministic across --jobs values and runs.
     */
    const obs::MetricsShard &metrics() const { return shard_; }

    /**
     * The batch's work-unit list: one ClusterUnit per cluster, in
     * cluster order, each carrying the batch's options. Built before
     * any worker starts.
     */
    std::vector<ClusterUnit> makeUnits(std::size_t n_clusters) const;

  private:
    const ir::Program &prog;
    PortendOptions opts;
    const rt::StaticInfo &static_info;
    obs::MetricsShard shard_;
};

} // namespace portend::core

#endif // PORTEND_PORTEND_SCHEDULER_H
