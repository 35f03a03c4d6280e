/**
 * @file
 * Tests for the unified observability layer (PR 8): metrics-shard
 * merge algebra, collector drains, export determinism across worker
 * counts and runs, trace-event JSON schema invariants, verdicts
 * unchanged under the installed sinks, and the monotonic clock
 * contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "portend/portend.h"
#include "support/clock.h"
#include "support/observe.h"
#include "support/trace.h"
#include "workloads/registry.h"

namespace portend {
namespace {

/** Reset both process-wide sinks on scope exit, so tests cannot
 *  leak an installed collector or tracer into each other. */
struct SinkGuard
{
    ~SinkGuard()
    {
        obs::setCollector(nullptr);
        obs::setTracer(nullptr);
    }
};

core::PortendResult
runWorkload(const std::string &name, int jobs)
{
    workloads::Workload w = workloads::buildWorkload(name);
    core::PortendOptions opts;
    opts.jobs = jobs;
    opts.semantic_predicates = w.semantic_predicates;
    core::Portend tool(w.program, opts);
    return tool.run();
}

// ---------------------------------------------------------------------------
// Shard algebra
// ---------------------------------------------------------------------------

TEST(MetricsShardTest, MergeIsCommutative)
{
    obs::MetricsShard a;
    a.add(obs::Counter::InterpSteps, 10);
    a.level(obs::Gauge::DecodedSites, 7);
    a.observe(obs::Hist::InterpRunSteps, 5);

    obs::MetricsShard b;
    b.add(obs::Counter::InterpSteps, 32);
    b.add(obs::Counter::SolverQueries, 4);
    b.level(obs::Gauge::DecodedSites, 3);
    b.observe(obs::Hist::InterpRunSteps, 900);

    obs::MetricsShard ab = a;
    ab.merge(b);
    obs::MetricsShard ba = b;
    ba.merge(a);
    EXPECT_EQ(obs::metricsJson(ab), obs::metricsJson(ba));
    EXPECT_EQ(ab.counter(obs::Counter::InterpSteps), 42u);
    EXPECT_EQ(ab.gauge(obs::Gauge::DecodedSites), 7u); // max, not sum
    EXPECT_EQ(ab.histCount(obs::Hist::InterpRunSteps), 2u);
    EXPECT_EQ(ab.histSum(obs::Hist::InterpRunSteps), 905u);
}

TEST(MetricsShardTest, HistogramBucketsAreLog2)
{
    obs::MetricsShard s;
    s.observe(obs::Hist::InterpRunSteps, 0); // bucket 0: {0}
    s.observe(obs::Hist::InterpRunSteps, 1); // bucket 1: [1, 2)
    s.observe(obs::Hist::InterpRunSteps, 2); // bucket 2: [2, 4)
    s.observe(obs::Hist::InterpRunSteps, 3);
    s.observe(obs::Hist::InterpRunSteps, 1024); // bucket 11
    EXPECT_EQ(s.histBucket(obs::Hist::InterpRunSteps, 0), 1u);
    EXPECT_EQ(s.histBucket(obs::Hist::InterpRunSteps, 1), 1u);
    EXPECT_EQ(s.histBucket(obs::Hist::InterpRunSteps, 2), 2u);
    EXPECT_EQ(s.histBucket(obs::Hist::InterpRunSteps, 11), 1u);
    EXPECT_EQ(s.histCount(obs::Hist::InterpRunSteps), 5u);
    EXPECT_EQ(s.histSum(obs::Hist::InterpRunSteps), 1030u);
}

TEST(MetricsShardTest, ExportCoversEveryRegisteredMetric)
{
    obs::MetricsShard s;
    const std::string json = obs::metricsJson(s);
    EXPECT_NE(json.find("\"schema\": \"portend-metrics-v1\""),
              std::string::npos);
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
        const char *name =
            obs::counterName(static_cast<obs::Counter>(i));
        EXPECT_NE(json.find('"' + std::string(name) + '"'),
                  std::string::npos)
            << "counter missing from export: " << name;
    }
    for (std::size_t i = 0; i < obs::kNumGauges; ++i) {
        const char *name = obs::gaugeName(static_cast<obs::Gauge>(i));
        EXPECT_NE(json.find('"' + std::string(name) + '"'),
                  std::string::npos)
            << "gauge missing from export: " << name;
    }
    for (std::size_t i = 0; i < obs::kNumHists; ++i) {
        const char *name = obs::histName(static_cast<obs::Hist>(i));
        EXPECT_NE(json.find('"' + std::string(name) + '"'),
                  std::string::npos)
            << "histogram missing from export: " << name;
    }
    // No timing and no worker counts: the determinism contract.
    EXPECT_EQ(json.find("seconds"), std::string::npos);
    EXPECT_EQ(json.find("jobs"), std::string::npos);
}

TEST(CollectorTest, DrainMatchesShardAndIsNonDestructive)
{
    obs::Collector c;
    c.add(obs::Counter::SolverQueries, 3);
    c.level(obs::Gauge::FuzzCorpusSize, 9);
    c.level(obs::Gauge::FuzzCorpusSize, 4); // max keeps 9
    c.observe(obs::Hist::InterpRunSteps, 17);

    obs::MetricsShard expect;
    expect.add(obs::Counter::SolverQueries, 3);
    expect.level(obs::Gauge::FuzzCorpusSize, 9);
    expect.observe(obs::Hist::InterpRunSteps, 17);

    obs::MetricsShard once;
    c.drainInto(once);
    EXPECT_EQ(obs::metricsJson(once), obs::metricsJson(expect));

    obs::MetricsShard twice;
    c.drainInto(twice);
    EXPECT_EQ(obs::metricsJson(twice), obs::metricsJson(once));
}

// ---------------------------------------------------------------------------
// Pipeline export determinism
// ---------------------------------------------------------------------------

TEST(MetricsDeterminismTest, JobsDoNotChangeExportedBytes)
{
    // rw reaches stage 3 (k-witness harmless via DPOR), so every
    // subsystem contributes to the shard.
    const std::string one =
        obs::metricsJson(runWorkload("rw", 1).metrics);
    const std::string four =
        obs::metricsJson(runWorkload("rw", 4).metrics);
    EXPECT_EQ(one, four);
}

TEST(MetricsDeterminismTest, RunToRunBytesAreIdentical)
{
    const std::string first =
        obs::metricsJson(runWorkload("dbm", 2).metrics);
    const std::string second =
        obs::metricsJson(runWorkload("dbm", 2).metrics);
    EXPECT_EQ(first, second);
}

/** Verdict counters of @p m, summed. */
std::uint64_t
verdictSum(const obs::MetricsShard &m)
{
    return m.counter(obs::Counter::VerdictSpecViolated) +
           m.counter(obs::Counter::VerdictOutputDiffers) +
           m.counter(obs::Counter::VerdictKWitnessHarmless) +
           m.counter(obs::Counter::VerdictSingleOrdering) +
           m.counter(obs::Counter::VerdictUnclassified);
}

TEST(MetricsDeterminismTest, PipelineShardCountsClustersAndVerdicts)
{
    core::PortendResult res = runWorkload("rw", 2);
    const obs::MetricsShard &m = res.metrics;
    EXPECT_EQ(m.counter(obs::Counter::PipelineWorkloads), 1u);
    EXPECT_EQ(m.counter(obs::Counter::ClassifyClusters),
              res.reports.size());
    EXPECT_EQ(verdictSum(m), res.reports.size());
    EXPECT_EQ(m.counter(obs::Counter::DetectClusters),
              res.detection.clusters.size());
    EXPECT_GT(m.counter(obs::Counter::ClassifySteps), 0u);
}

// ---------------------------------------------------------------------------
// Ledger views stay consistent with the registry
// ---------------------------------------------------------------------------

TEST(LedgerViewTest, DetectionShardRecordsTheRun)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    core::Portend tool(w.program, core::PortendOptions{});
    core::DetectionResult d = tool.detect();
    const obs::MetricsShard &m = d.metrics;
    EXPECT_EQ(m.counter(obs::Counter::DetectRuns), 1u);
    EXPECT_EQ(m.counter(obs::Counter::DetectSteps), d.steps);
    EXPECT_EQ(m.counter(obs::Counter::DetectDynamicRaces),
              d.dynamic_races);
    EXPECT_EQ(m.counter(obs::Counter::DetectClusters), d.clusters.size());
    // The decode is a property of the program, not of the run.
    const rt::Interpreter fresh(w.program, rt::ExecOptions{});
    EXPECT_EQ(m.gauge(obs::Gauge::DecodedSites),
              static_cast<std::uint64_t>(fresh.decodedSites()));
    // The run is deterministic, so its record is too.
    EXPECT_EQ(obs::metricsJson(m),
              obs::metricsJson(tool.detect().metrics));
}

// ---------------------------------------------------------------------------
// Exact loop detection reconciles with the step and timeout counters
// ---------------------------------------------------------------------------

/** The `--metrics-out` shard of `classify --all --jobs N`: unit
 *  shards in manifest order plus the process collector. */
obs::MetricsShard
classifyAllExport(int jobs)
{
    SinkGuard guard;
    obs::Collector col;
    obs::setCollector(&col);
    campaign::CampaignConfig config;
    config.render.classify_mode = true;
    config.units = campaign::registryUnits();
    campaign::Campaign engine(config);
    obs::MetricsShard m = engine.run(-1, jobs).metrics;
    col.drainInto(m);
    return m;
}

/** The `--metrics-out` shard of `fuzz --fuzz-seed 42 --budget 200
 *  --jobs N`: program shards in index order plus the process
 *  collector. */
obs::MetricsShard
fuzzExport(int jobs)
{
    SinkGuard guard;
    obs::Collector col;
    obs::setCollector(&col);
    fuzz::FuzzOptions fo;
    fo.fuzz_seed = 42;
    fo.budget = 200;
    fo.jobs = jobs;
    obs::MetricsShard m = fuzz::runFuzz(fo).metrics;
    col.drainInto(m);
    return m;
}

// The fuzz export carries every program's pipeline shard: the same
// bytes at every --jobs value, one verdict per classified cluster,
// and one detection and ladder per program.
TEST(MetricsDeterminismTest, FuzzExportCarriesPipelineShards)
{
    const obs::MetricsShard one = fuzzExport(1);
    for (int jobs : {2, 4}) {
        EXPECT_EQ(obs::metricsJson(one), obs::metricsJson(fuzzExport(jobs)))
            << "jobs " << jobs;
    }
    const std::uint64_t clusters =
        one.counter(obs::Counter::ClassifyClusters);
    EXPECT_GT(clusters, 0u);
    EXPECT_EQ(verdictSum(one), clusters);
    EXPECT_EQ(one.counter(obs::Counter::DetectClusters), clusters);
    EXPECT_EQ(one.counter(obs::Counter::DetectRuns),
              one.counter(obs::Counter::PipelineWorkloads));
    EXPECT_LE(one.counter(obs::Counter::PipelineWorkloads),
              one.counter(obs::Counter::FuzzPrograms));
    EXPECT_GT(one.counter(obs::Counter::ClassifySteps), 0u);
    EXPECT_GT(one.counter(obs::Counter::LadderRungs), 0u);
    EXPECT_GT(one.counter(obs::Counter::LadderBuildSteps), 0u);
    EXPECT_GT(one.counter(obs::Counter::LadderCoveredSteps), 0u);
}

// ---------------------------------------------------------------------------
// Metrics that reconcile: verdicts and campaign unit sources
// ---------------------------------------------------------------------------

/** Every classified cluster gets exactly one verdict. */
void
expectVerdictIdentity(const obs::MetricsShard &m)
{
    EXPECT_EQ(verdictSum(m), m.counter(obs::Counter::ClassifyClusters));
}

/** Every unit of a complete campaign run is a cache hit or a cache
 *  miss (executed). */
void
expectUnitIdentity(const obs::MetricsShard &m)
{
    EXPECT_EQ(m.counter(obs::Counter::CampaignCacheHits) +
                  m.counter(obs::Counter::CampaignCacheMisses),
              m.counter(obs::Counter::CampaignUnits));
}

/** The `--metrics-out` shard of `campaign run <dir> --jobs 1`, cut
 *  after @p abort_after stored units (-1: run to completion). */
obs::MetricsShard
campaignRunExport(const std::string &dir, int abort_after)
{
    SinkGuard guard;
    obs::Collector col;
    obs::setCollector(&col);
    campaign::CampaignConfig config;
    config.render.classify_mode = true;
    config.units = campaign::registryUnits();
    std::string err;
    std::optional<campaign::Campaign> c =
        campaign::Campaign::create(dir, config, &err);
    EXPECT_TRUE(c.has_value()) << err;
    if (!c)
        return {};
    campaign::CampaignResult res = c->run(abort_after, 1);
    EXPECT_TRUE(res.error.empty()) << res.error;
    EXPECT_EQ(res.aborted, abort_after >= 0);
    obs::MetricsShard m = res.metrics;
    col.drainInto(m);
    return m;
}

TEST(MetricsIdentityTest, ClassifyAllAndCampaignRunsReconcile)
{
    const obs::MetricsShard all = classifyAllExport(1);
    expectVerdictIdentity(all);
    expectUnitIdentity(all);
    const std::uint64_t units = campaign::registryUnits().size();
    const std::uint64_t clusters =
        all.counter(obs::Counter::ClassifyClusters);
    EXPECT_GT(clusters, 0u);

    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "observe_identities";
    fs::remove_all(root);

    // Cold: every unit executes. Warm: the cache holds them all, and
    // the key is taken before detection, so nothing runs at all.
    const std::string dir = (root / "cold").string();
    const obs::MetricsShard cold = campaignRunExport(dir, -1);
    expectVerdictIdentity(cold);
    expectUnitIdentity(cold);
    EXPECT_EQ(cold.counter(obs::Counter::CampaignCacheMisses), units);
    EXPECT_EQ(cold.counter(obs::Counter::DetectRuns), units);
    EXPECT_EQ(cold.counter(obs::Counter::ClassifyClusters), clusters);
    const obs::MetricsShard warm = campaignRunExport(dir, -1);
    expectVerdictIdentity(warm);
    expectUnitIdentity(warm);
    EXPECT_EQ(warm.counter(obs::Counter::CampaignCacheHits), units);
    EXPECT_EQ(warm.counter(obs::Counter::DetectRuns), 0u);
    EXPECT_EQ(warm.counter(obs::Counter::ClassifyClusters), 0u);

    // Killed after four stored units, then run again: the resumed
    // run finds those four in the cache and executes the rest.
    const std::string cut = (root / "killed").string();
    expectVerdictIdentity(campaignRunExport(cut, 4));
    const obs::MetricsShard resumed = campaignRunExport(cut, -1);
    expectVerdictIdentity(resumed);
    expectUnitIdentity(resumed);
    EXPECT_EQ(resumed.counter(obs::Counter::CampaignCacheHits), 4u);
    EXPECT_EQ(resumed.counter(obs::Counter::CampaignCacheMisses),
              units - 4);
    EXPECT_EQ(resumed.counter(obs::Counter::DetectRuns), units - 4);
    fs::remove_all(root);
}

/** The identities docs/ARCHITECTURE.md states for loop detection. */
void
expectLoopIdentities(const obs::MetricsShard &m)
{
    const std::uint64_t steps = m.counter(obs::Counter::InterpSteps);
    const std::uint64_t skipped =
        m.counter(obs::Counter::InterpStepsSkipped);
    const std::uint64_t cycles =
        m.counter(obs::Counter::InterpCyclesDetected);
    const std::uint64_t timeouts =
        m.counter(obs::Counter::InterpTimeouts);
    // interp.steps and the per-run histogram count logical steps;
    // executed steps are interp.steps - interp.steps_skipped.
    EXPECT_EQ(m.histSum(obs::Hist::InterpRunSteps), steps);
    EXPECT_LE(skipped, steps);
    // A detected cycle always runs into the step budget.
    EXPECT_LE(cycles, timeouts);
    // On these fixed inputs every timeout is a detected cycle.
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(cycles, timeouts);
    EXPECT_GT(skipped, 0u);
}

TEST(LoopIdentityTest, ClassifyAllReconcilesAcrossJobs)
{
    const obs::MetricsShard one = classifyAllExport(1);
    const obs::MetricsShard four = classifyAllExport(4);
    EXPECT_EQ(obs::metricsJson(one), obs::metricsJson(four));
    expectLoopIdentities(one);
}

TEST(LoopIdentityTest, FuzzSeed42ReconcilesAcrossJobs)
{
    const obs::MetricsShard one = fuzzExport(1);
    const obs::MetricsShard four = fuzzExport(4);
    EXPECT_EQ(obs::metricsJson(one), obs::metricsJson(four));
    expectLoopIdentities(one);
}

// ---------------------------------------------------------------------------
// Stage 1 adopts the checkpoint ladder's end: the saving reconciles
// ---------------------------------------------------------------------------

/**
 * The ladder's tail runs once per batch, and every adopting primary
 * skips its own tail, so the steps executed before stage 1 adopted
 * the end are interp.steps + ladder.steps_reused - ladder.tail_steps.
 * @p parent_steps is interp.steps of the same export at commit
 * 2d1cc54, the last one whose primaries all ran their own tails.
 */
void
expectLadderIdentity(const obs::MetricsShard &m,
                     std::uint64_t parent_steps)
{
    const std::uint64_t reused =
        m.counter(obs::Counter::LadderStepsReused);
    const std::uint64_t tail = m.counter(obs::Counter::LadderTailSteps);
    EXPECT_GT(reused, 0u);
    EXPECT_GT(tail, 0u);
    EXPECT_EQ(m.counter(obs::Counter::InterpSteps) + reused - tail,
              parent_steps);
}

/**
 * The explorer's counters: @p recorded and @p distinct say which
 * schedules ran, @p candidates how many DPOR candidates were
 * generated to run them.
 */
void
expectExploreCounters(const obs::MetricsShard &m, std::uint64_t recorded,
                      std::uint64_t distinct, std::uint64_t candidates)
{
    EXPECT_EQ(m.counter(obs::Counter::ExploreRecorded), recorded);
    EXPECT_EQ(m.counter(obs::Counter::ExploreDistinct), distinct);
    EXPECT_EQ(m.counter(obs::Counter::ExploreCandidates), candidates);
}

TEST(LadderEndIdentityTest, ClassifyAllReconcilesWithParent)
{
    const obs::MetricsShard one = classifyAllExport(1);
    const obs::MetricsShard four = classifyAllExport(4);
    EXPECT_EQ(obs::metricsJson(one), obs::metricsJson(four));
    expectLadderIdentity(one, 147620);
    // A verdict absorbs each state's cumulative counters, so this is
    // the same whether a primary ran its tail or adopted it.
    EXPECT_EQ(one.counter(obs::Counter::ClassifySteps), 211272u);
    // Lazy DPOR expansion runs the same schedules (recorded and
    // distinct as at d04c87f) from 50 generated candidates, not
    // 1,025.
    expectExploreCounters(one, 87, 42, 50);
}

/**
 * The work of the runs the fuzz oracle no longer repeats, at fuzz
 * seed 42 budget 200, each run measured on its own under a fresh
 * collector as interp.steps + ladder.steps_reused -
 * ladder.tail_steps. Per deep program: the detections of the jobs,
 * explore, Ma and k re-runs, plus both sym runs' when the program
 * declares inputs (they now classify the primary run's detection),
 * and for programs with inputs the sym block's copy of the stage-1
 * baseline's classification (it now reuses the k block's). The
 * explore re-run ran the retired random explorer; detection reads no
 * explorer, so its detection is measured under the primary options.
 * Per program, deep or not: the mutex-blind and lockset detections
 * (those detectors now observe the primary detection run).
 */
std::uint64_t
removedOracleSteps()
{
    SinkGuard guard;
    const auto work = [](const auto &run) {
        obs::Collector col;
        obs::setCollector(&col);
        run();
        obs::setCollector(nullptr);
        obs::MetricsShard m;
        col.drainInto(m);
        return m.counter(obs::Counter::InterpSteps) +
               m.counter(obs::Counter::LadderStepsReused) -
               m.counter(obs::Counter::LadderTailSteps);
    };

    core::PortendOptions full;
    full.mp = fuzz::kOracleMp;
    full.ma = fuzz::kOracleMa;
    full.max_steps = fuzz::kOracleMaxSteps;
    full.executor_max_states = fuzz::kOracleMaxStates;
    full.jobs = 1;

    core::PortendOptions jobs2 = full;
    jobs2.jobs = 2;
    core::PortendOptions wide = full;
    wide.ma = full.ma * 2;
    core::PortendOptions lo = full;
    lo.mp = 1;
    lo.ma = 1;
    lo.multi_path = false;
    lo.multi_schedule = false;

    std::uint64_t removed = 0;
    for (int i = 0; i < 200; ++i) {
        const fuzz::GeneratedProgram gen =
            fuzz::generateProgram(42, i, fuzz::GeneratorOptions{});
        EXPECT_TRUE(gen.verify_errors.empty()) << "index " << i;
        for (core::DetectorKind d : {core::DetectorKind::HappensBeforeNoMutex,
                                     core::DetectorKind::Lockset}) {
            core::PortendOptions o = full;
            o.detector = d;
            removed += work([&] { core::Portend(gen.program, o).detect(); });
        }
    }
    int deep = 0;
    int with_inputs = 0;
    for (int i = 0; i < 200; i += fuzz::kDeepEvery) {
        const fuzz::GeneratedProgram gen =
            fuzz::generateProgram(42, i, fuzz::GeneratorOptions{});
        EXPECT_TRUE(gen.verify_errors.empty()) << "index " << i;
        const ir::Program &prog = gen.program;
        deep += 1;
        std::vector<core::PortendOptions> detections = {jobs2, full, wide,
                                                        lo};
        if (!prog.inputs.empty()) {
            with_inputs += 1;
            core::PortendOptions so = full;
            for (const ir::InputDecl &d : prog.inputs)
                so.sym_inputs.push_back(
                    rt::SymInputSpec{d.name, false, 0, 0});
            detections.push_back(lo);
            detections.push_back(so);
            const core::DetectionResult det =
                core::Portend(prog, lo).detect();
            removed += work([&] { core::Portend(prog, lo).runFrom(det); });
        }
        for (const core::PortendOptions &o : detections)
            removed += work([&] { core::Portend(prog, o).detect(); });
    }
    EXPECT_EQ(deep, 50);
    EXPECT_EQ(with_inputs, 12);
    EXPECT_GT(removed, 0u);
    return removed;
}

/** interp.steps + ladder.steps_reused - ladder.tail_steps of the
 *  explore-monotonicity re-runs of fuzz seed 42 budget 200 (a random
 *  explorer classifying each deep program's primary detection), at
 *  bdeaa30. */
constexpr std::uint64_t kRetiredExploreRerunSteps = 38932;

/** The same work of the single-path single-schedule stage-1 baseline
 *  the k- and sym-monotonicity checks compared against (Mp = Ma = 1,
 *  no multi-path, no multi-schedule, classifying each deep program's
 *  primary detection), at edee4bd, their last commit. */
constexpr std::uint64_t kRetiredStageOneBaselineSteps = 35749;

TEST(LadderEndIdentityTest, FuzzSeed42ReconcilesWithParent)
{
    const obs::MetricsShard one = fuzzExport(1);
    const obs::MetricsShard four = fuzzExport(4);
    EXPECT_EQ(obs::metricsJson(one), obs::metricsJson(four));
    // The oracle's work at 2d1cc54, less the runs it stopped
    // repeating since, less the classification work of the retired
    // explore-monotonicity re-run and stage-1 baseline.
    expectLadderIdentity(one, 2515494 - removedOracleSteps() -
                                  kRetiredExploreRerunSteps -
                                  kRetiredStageOneBaselineSteps);
    // As at d04c87f, less that re-run's 46 recorded runs (34
    // distinct), from 286 generated candidates, not 1,708 (the
    // re-run generated none).
    expectExploreCounters(one, 680, 294, 286);
}

// ---------------------------------------------------------------------------
// Trace-event JSON schema
// ---------------------------------------------------------------------------

/** One parsed ph:"X" event (fields pulled straight off the line the
 *  writer emits — the writer's one-event-per-line layout is part of
 *  what this parser checks). */
struct ParsedEvent
{
    double ts = 0;
    double dur = 0;
    long tid = -1;
    std::string cat;
};

std::vector<ParsedEvent>
parseCompleteEvents(const std::string &json)
{
    std::vector<ParsedEvent> out;
    std::istringstream is(json);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"ph\": \"X\"") == std::string::npos)
            continue;
        ParsedEvent e;
        auto number = [&](const char *key) -> double {
            std::size_t at = line.find(key);
            EXPECT_NE(at, std::string::npos) << key << " in " << line;
            return std::stod(line.substr(at + std::strlen(key)));
        };
        e.ts = number("\"ts\": ");
        e.dur = number("\"dur\": ");
        e.tid = static_cast<long>(number("\"tid\": "));
        std::size_t c = line.find("\"cat\": \"");
        EXPECT_NE(c, std::string::npos);
        c += 8;
        e.cat = line.substr(c, line.find('"', c) - c);
        out.push_back(e);
    }
    return out;
}

TEST(TraceSchemaTest, PipelineTraceIsWellFormedAndNested)
{
    SinkGuard guard;
    obs::Tracer tracer;
    obs::setTracer(&tracer);
    core::PortendResult res = runWorkload("rw", 2);
    obs::setTracer(nullptr);
    ASSERT_FALSE(res.reports.empty());

    const std::string json = tracer.toJson();
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_EQ(tracer.dropped(), 0u);

    std::vector<ParsedEvent> events = parseCompleteEvents(json);
    ASSERT_GE(events.size(), 5u);

    // Spans from at least five subsystems (the acceptance bar).
    std::map<std::string, int> cats;
    for (const ParsedEvent &e : events)
        cats[e.cat] += 1;
    EXPECT_GE(cats.size(), 5u) << "categories seen: " << cats.size();
    for (const char *want :
         {"interp", "ladder", "explore", "sym", "scheduler"})
        EXPECT_TRUE(cats.count(want)) << "no spans from " << want;

    // Per thread: timestamps monotone (the writer sorts) and spans
    // properly nested — a child must end before its parent does.
    std::map<long, std::vector<ParsedEvent>> per_tid;
    for (const ParsedEvent &e : events)
        per_tid[e.tid].push_back(e);
    for (auto &[tid, evs] : per_tid) {
        double prev_ts = -1;
        std::vector<double> open_ends;
        for (const ParsedEvent &e : evs) {
            EXPECT_GE(e.ts, prev_ts) << "ts not monotone, tid " << tid;
            prev_ts = e.ts;
            const double end = e.ts + e.dur;
            while (!open_ends.empty() && open_ends.back() <= e.ts)
                open_ends.pop_back();
            if (!open_ends.empty()) {
                EXPECT_LE(end, open_ends.back())
                    << "span overlaps its parent, tid " << tid;
            }
            open_ends.push_back(end);
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks do not perturb verdicts
// ---------------------------------------------------------------------------

TEST(SinkTest, VerdictsUnchangedWithEverySinkInstalled)
{
    core::PortendResult plain = runWorkload("dcl", 2);

    SinkGuard guard;
    obs::Collector collector;
    obs::Tracer tracer;
    obs::setCollector(&collector);
    obs::setTracer(&tracer);
    core::PortendResult observed = runWorkload("dcl", 2);
    obs::setCollector(nullptr);
    obs::setTracer(nullptr);

    ASSERT_EQ(plain.reports.size(), observed.reports.size());
    for (std::size_t i = 0; i < plain.reports.size(); ++i) {
        EXPECT_EQ(plain.reports[i].classification.cls,
                  observed.reports[i].classification.cls);
        EXPECT_EQ(plain.reports[i].classification.k,
                  observed.reports[i].classification.k);
    }
    EXPECT_EQ(obs::metricsJson(plain.metrics),
              obs::metricsJson(observed.metrics));
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

TEST(ClockTest, SteadyNanosIsMonotone)
{
    std::uint64_t prev = steadyNanos();
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t now = steadyNanos();
        ASSERT_GE(now, prev);
        prev = now;
    }
}

TEST(ClockTest, SteadySecondsConverts)
{
    EXPECT_DOUBLE_EQ(steadySeconds(0, 2'500'000'000ull), 2.5);
    EXPECT_DOUBLE_EQ(steadySeconds(1'000'000'000ull,
                                   1'000'000'000ull),
                     0.0);
}

} // namespace
} // namespace portend
