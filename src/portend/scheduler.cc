#include "portend/scheduler.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <utility>

#include <cstdio>

#include "campaign/queue.h"
#include "replay/checkpoint.h"
#include "support/stats.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace portend::core {

namespace {

/** `--progress jsonl`: one line per classified cluster. */
void
emitClusterEvent(std::size_t index, const PortendReport &r)
{
    if (!obs::progress())
        return;
    const AnalysisStats &s = r.classification.stats;
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "{\"event\": \"cluster\", \"index\": %zu, \"cell\": %d, "
        "\"class\": \"%s\", \"k\": %d, \"distinct_schedules\": %d, "
        "\"schedules_explored\": %d, \"steps\": %llu}",
        index, r.cluster.representative.cell,
        raceClassName(r.classification.cls), r.classification.k,
        s.distinct_schedules, s.schedules_explored,
        static_cast<unsigned long long>(s.steps));
    obs::progressLine(buf);
}

/**
 * Run @p drain on the calling thread and on @p helpers pool threads;
 * return once every copy has finished, rethrowing the first
 * exception (the caller's before the helpers', in submission order).
 *
 * The helpers come from a pool owned by the calling thread and kept
 * across batches, built on first use and rebuilt only when a batch
 * needs more helpers than it has: a thread that classifies many
 * small batches (the fuzz oracle's --jobs 2 re-run, once per deep
 * program) starts its helper threads once, not once per batch.
 * Reuse is safe because classifyAll never runs inside one of its own
 * drains, so no helper ever waits on the pool it belongs to, and
 * because forked serve workers only run jobs = 1 pipelines
 * (campaign::executeUnit), so no process inherits a pool whose
 * threads it does not have.
 */
void
drainWithHelpers(int helpers, const std::function<void()> &drain)
{
    thread_local std::unique_ptr<ThreadPool> pool;
    if (!pool || pool->size() < helpers) {
        pool.reset(); // join the old helpers before starting more
        pool = std::make_unique<ThreadPool>(helpers);
    }
    std::vector<std::future<void>> done;
    done.reserve(static_cast<std::size_t>(helpers));
    for (int h = 0; h < helpers; ++h)
        done.push_back(pool->submit(drain));
    std::exception_ptr error;
    try {
        drain();
    } catch (...) {
        error = std::current_exception();
    }
    // The drains reference the batch's locals (queue, reports,
    // shards, ladder): wait for every helper before leaving, on the
    // error path too.
    for (std::future<void> &f : done)
        f.wait();
    if (error)
        std::rethrow_exception(error);
    for (std::future<void> &f : done)
        f.get();
}

} // namespace

ClassificationScheduler::ClassificationScheduler(
    const ir::Program &prog, PortendOptions opts,
    const rt::StaticInfo &static_info)
    : prog(prog), opts(std::move(opts)), static_info(static_info)
{}

int
ClassificationScheduler::jobs() const
{
    return ThreadPool::resolveJobs(opts.jobs);
}

std::vector<ClusterUnit>
ClassificationScheduler::makeUnits(std::size_t n_clusters) const
{
    std::vector<ClusterUnit> units;
    units.reserve(n_clusters);
    for (std::size_t i = 0; i < n_clusters; ++i)
        units.push_back({i, opts});
    return units;
}

std::vector<PortendReport>
ClassificationScheduler::classifyAll(
    const std::vector<race::RaceCluster> &clusters,
    const replay::ScheduleTrace &trace)
{
    obs::Span batch_span("scheduler", "classify-batch");
    batch_span.arg("clusters", static_cast<std::int64_t>(clusters.size()));
    Stopwatch sw;
    shard_ = obs::MetricsShard{};

    std::vector<PortendReport> reports(clusters.size());
    if (clusters.empty())
        return reports;

    const int n_workers = std::min(
        jobs(), static_cast<int>(clusters.size()));

    // One shared replay of the recorded trace caches every cluster's
    // pre-race checkpoint; the jobs fork copy-on-write states from
    // the rungs instead of re-replaying the prefix. Read-only from
    // here on (the workers only copy rung states).
    const replay::CheckpointLadder ladder =
        replay::CheckpointLadder::build(
            prog, trace,
            replay::CheckpointLadder::targetsFor(clusters),
            RaceAnalyzer::replayOptions(opts),
            opts.semantic_predicates);

    // The batch as work units: one ClusterUnit per cluster, drained
    // from a shared claim-by-cursor queue by n_workers drain loops,
    // one of them on the calling thread (see drainWithHelpers). Each
    // claimed unit gets a unit-local analyzer (construction is cheap:
    // the expensive StaticInfo is shared read-only). queue_seconds is
    // the per-unit enqueue→claim delta — the time the unit actually
    // waited for a free worker — not elapsed-since-batch-start, which
    // would charge ladder construction and a worker's earlier cluster
    // compute time as queue wait. Every unit is enqueued the moment
    // the queue exists, so the enqueue stamp is one shared value.
    campaign::Queue<ClusterUnit> queue(makeUnits(clusters.size()));
    std::vector<obs::MetricsShard> shards(clusters.size());
    const double enqueued_at = sw.seconds();
    const auto runUnit = [&](const ClusterUnit &unit) {
        obs::Span cluster_span("scheduler", "cluster");
        cluster_span.arg("index",
                         static_cast<std::int64_t>(unit.index));
        const double started = sw.seconds();
        RaceAnalyzer analyzer(prog, unit.opts, static_info);
        PortendReport &out = reports[unit.index];
        out.cluster = clusters[unit.index];
        out.classification = analyzer.classify(
            clusters[unit.index].representative, trace, &ladder);
        out.classification.stats.queue_seconds =
            std::max(0.0, started - enqueued_at);
        // Worker-local shard: folded into the batch shard in cluster
        // index order after the join, never by completion order.
        foldVerdict(out.classification, shards[unit.index]);
        emitClusterEvent(unit.index, out);
    };
    const auto drain = [&] {
        while (const ClusterUnit *unit = queue.next())
            runUnit(*unit);
    };
    if (n_workers == 1)
        drain();
    else
        drainWithHelpers(n_workers - 1, drain);

    // Every drain has finished: the shard slots are plain memory now.
    // Merge in cluster index order (counters commute, but the fixed
    // order is the documented determinism rule and keeps any future
    // non-commutative metric honest).
    shard_.add(obs::Counter::LadderRungs,
               static_cast<std::uint64_t>(ladder.size()));
    shard_.add(obs::Counter::LadderBuildSteps, ladder.buildSteps());
    shard_.add(obs::Counter::LadderCoveredSteps,
               ladder.prefixStepsCovered());
    for (std::size_t i = 0; i < shards.size(); ++i)
        shard_.merge(shards[i]);
    return reports;
}

} // namespace portend::core
