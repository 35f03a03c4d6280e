#include "portend/scheduler.h"

#include <utility>

#include "replay/checkpoint.h"
#include "support/parallel.h"
#include "support/trace.h"

namespace portend::core {

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
    });

    // Every body has finished: the verdicts are plain memory now,
    // and every merge commutes, so the fold order is free.
    shard_.add(obs::Counter::LadderRungs,
               static_cast<std::uint64_t>(ladder.size()));
    shard_.add(obs::Counter::LadderBuildSteps, ladder.buildSteps());
    shard_.add(obs::Counter::LadderCoveredSteps,
               ladder.prefixStepsCovered());
    for (const PortendReport &r : reports)
        foldVerdict(r.classification, shard_);
    return reports;
}

} // namespace portend::core
