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

/** The ledger is a view: read every counter back from the shard. */
void
statsFromShard(SchedulerStats &st, const obs::MetricsShard &m)
{
    using obs::Counter;
    st.steps = m.counter(Counter::ClassifySteps);
    st.preemptions = m.counter(Counter::ClassifyPreemptions);
    st.sym_branches = m.counter(Counter::ClassifySymBranches);
    st.states_created =
        static_cast<int>(m.counter(Counter::ClassifyStatesCreated));
    st.paths_explored =
        static_cast<int>(m.counter(Counter::ClassifyPaths));
    st.schedules_explored =
        static_cast<int>(m.counter(Counter::ClassifySchedules));
    st.distinct_schedules =
        static_cast<int>(m.counter(Counter::ClassifyDistinctSchedules));
    st.solver_queries = m.counter(Counter::ClassifySolverQueries);
    st.clusters = static_cast<int>(m.counter(Counter::ClassifyClusters));
    st.ladder_rungs = static_cast<int>(m.counter(Counter::LadderRungs));
    st.ladder_steps = m.counter(Counter::LadderBuildSteps);
    st.ladder_covered_steps = m.counter(Counter::LadderCoveredSteps);
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

PortendOptions
ClassificationScheduler::taskOptions(std::size_t n_clusters,
                                     std::size_t index) const
{
    PortendOptions task = opts;
    const std::size_t n = std::max<std::size_t>(1, n_clusters);
    index = std::min(index, n - 1);

    // Fixed per-cluster slices of the global budgets, computed from
    // (cluster count, cluster index) alone: identical regardless of
    // worker count or interleaving, so budget-capped verdicts stay
    // deterministic. The first `total % n` clusters carry the
    // division remainder, so the slices sum back to the total
    // (except in the documented total < n regime, where the
    // never-below-1 floor lets every cluster make progress).
    if (opts.total_state_budget > 0) {
        const int base =
            opts.total_state_budget / static_cast<int>(n);
        const int rem = opts.total_state_budget % static_cast<int>(n);
        const int slice = std::max(
            1, base + (index < static_cast<std::size_t>(rem) ? 1 : 0));
        task.executor_max_states =
            std::min(opts.executor_max_states, slice);
    }
    if (opts.total_step_budget > 0) {
        const std::uint64_t base = opts.total_step_budget / n;
        const std::uint64_t rem = opts.total_step_budget % n;
        const std::uint64_t slice = std::max<std::uint64_t>(
            1, base + (index < rem ? 1 : 0));
        task.max_steps = std::min(opts.max_steps, slice);
    }
    return task;
}

std::vector<ClusterUnit>
ClassificationScheduler::makeUnits(std::size_t n_clusters) const
{
    std::vector<ClusterUnit> units;
    units.reserve(n_clusters);
    for (std::size_t i = 0; i < n_clusters; ++i)
        units.push_back({i, taskOptions(n_clusters, i)});
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
    stats_ = SchedulerStats{};
    shard_ = obs::MetricsShard{};

    std::vector<PortendReport> reports(clusters.size());
    if (clusters.empty()) {
        stats_.jobs = 1;
        stats_.seconds = sw.seconds();
        return reports;
    }

    const int n_workers = std::min(
        jobs(), static_cast<int>(clusters.size()));
    stats_.jobs = n_workers;

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

    // The batch as work units: one ClusterUnit per cluster, budget
    // slice applied up front, drained from a shared claim-by-cursor
    // queue by n_workers drain loops, one of them on the calling
    // thread (see drainWithHelpers). Each claimed unit gets a
    // unit-local analyzer (construction is cheap: the expensive
    // StaticInfo is shared read-only). queue_seconds is the per-unit
    // enqueue→claim delta — the time the unit actually waited for a
    // free worker — not elapsed-since-batch-start, which would
    // charge ladder construction and a worker's earlier cluster
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
    // non-commutative metric honest), then read the legacy ledger
    // back from the shard — SchedulerStats is a view since PR 8.
    shard_.add(obs::Counter::LadderRungs,
               static_cast<std::uint64_t>(ladder.size()));
    shard_.add(obs::Counter::LadderBuildSteps, ladder.buildSteps());
    shard_.add(obs::Counter::LadderCoveredSteps,
               ladder.prefixStepsCovered());
    for (std::size_t i = 0; i < shards.size(); ++i)
        shard_.merge(shards[i]);
    statsFromShard(stats_, shard_);
    stats_.seconds = sw.seconds();
    return reports;
}

} // namespace portend::core
