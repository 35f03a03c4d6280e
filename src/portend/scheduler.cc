#include "portend/scheduler.h"

#include <cstdio>
#include <utility>

#include "replay/checkpoint.h"
#include "support/parallel.h"
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

} // namespace

ClassificationScheduler::ClassificationScheduler(
    const ir::Program &prog, PortendOptions opts,
    const rt::StaticInfo &static_info)
    : prog(prog), opts(std::move(opts)), static_info(static_info)
{}

int
ClassificationScheduler::jobs() const
{
    return resolveJobs(opts.jobs);
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
    shard_ = obs::MetricsShard{};

    std::vector<PortendReport> reports(clusters.size());
    if (clusters.empty())
        return reports;

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

    // The batch as work units, one per cluster, each classified by
    // a unit-local analyzer (construction is cheap: the expensive
    // StaticInfo is shared read-only).
    const std::vector<ClusterUnit> units = makeUnits(clusters.size());
    std::vector<obs::MetricsShard> shards(clusters.size());
    parallelFor(jobs(), units.size(), [&](std::size_t i) {
        const ClusterUnit &unit = units[i];
        obs::Span cluster_span("scheduler", "cluster");
        cluster_span.arg("index",
                         static_cast<std::int64_t>(unit.index));
        RaceAnalyzer analyzer(prog, unit.opts, static_info);
        PortendReport &out = reports[unit.index];
        out.cluster = clusters[unit.index];
        out.classification = analyzer.classify(
            clusters[unit.index].representative, trace, &ladder);
        // Worker-local shard: folded into the batch shard in cluster
        // index order after the join, never by completion order.
        foldVerdict(out.classification, shards[unit.index]);
        emitClusterEvent(unit.index, out);
    });

    // Every body has finished: the shard slots are plain memory now.
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
