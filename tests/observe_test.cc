/**
 * @file
 * Tests for the unified observability layer (PR 8): metrics-shard
 * merge algebra, collector drains, export determinism across worker
 * counts and runs, trace-event JSON schema invariants, JSON-lines
 * telemetry, and the monotonic clock contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
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

/** Reset every process-wide sink on scope exit, so tests cannot
 *  leak an installed collector/tracer/progress into each other. */
struct SinkGuard
{
    ~SinkGuard()
    {
        obs::setCollector(nullptr);
        obs::setTracer(nullptr);
        obs::setProgress(nullptr);
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

TEST(MetricsDeterminismTest, PipelineShardCountsClustersAndVerdicts)
{
    core::PortendResult res = runWorkload("rw", 2);
    const obs::MetricsShard &m = res.metrics;
    EXPECT_EQ(m.counter(obs::Counter::PipelineWorkloads), 1u);
    EXPECT_EQ(m.counter(obs::Counter::ClassifyClusters),
              res.reports.size());
    std::uint64_t verdicts =
        m.counter(obs::Counter::VerdictSpecViolated) +
        m.counter(obs::Counter::VerdictOutputDiffers) +
        m.counter(obs::Counter::VerdictKWitnessHarmless) +
        m.counter(obs::Counter::VerdictSingleOrdering) +
        m.counter(obs::Counter::VerdictUnclassified);
    EXPECT_EQ(verdicts, res.reports.size());
    EXPECT_EQ(m.counter(obs::Counter::DetectClusters),
              res.detection.clusters.size());
    EXPECT_GT(m.counter(obs::Counter::ClassifySteps), 0u);
}

// ---------------------------------------------------------------------------
// Ledger views stay consistent with the registry
// ---------------------------------------------------------------------------

TEST(LedgerViewTest, SchedulerStatsMatchTheMergedShard)
{
    workloads::Workload w = workloads::buildWorkload("rw");
    core::PortendOptions opts;
    opts.jobs = 2;
    opts.semantic_predicates = w.semantic_predicates;
    core::Portend tool(w.program, opts);
    core::PortendResult res = tool.run();
    const core::SchedulerStats &st = res.scheduling;
    const obs::MetricsShard &m = res.metrics;
    EXPECT_EQ(static_cast<std::uint64_t>(st.clusters),
              m.counter(obs::Counter::ClassifyClusters));
    EXPECT_EQ(st.steps, m.counter(obs::Counter::ClassifySteps));
    EXPECT_EQ(static_cast<std::uint64_t>(st.schedules_explored),
              m.counter(obs::Counter::ClassifySchedules));
    EXPECT_EQ(static_cast<std::uint64_t>(st.solver_queries),
              m.counter(obs::Counter::ClassifySolverQueries));
}

TEST(LedgerViewTest, DetectionShardMirrorsVmStats)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    core::Portend tool(w.program, core::PortendOptions{});
    core::DetectionResult d = tool.detect();
    const obs::MetricsShard &m = d.metrics;
    EXPECT_EQ(m.counter(obs::Counter::DetectRuns), 1u);
    EXPECT_EQ(m.counter(obs::Counter::DetectSteps), d.steps);
    EXPECT_EQ(m.counter(obs::Counter::DetectEventsBatched),
              d.vm.events_batched);
    EXPECT_EQ(m.counter(obs::Counter::DetectPagesUnshared),
              d.vm.pages_unshared);
    EXPECT_EQ(m.counter(obs::Counter::DetectValuesBoxed),
              d.vm.values_boxed);
    EXPECT_EQ(m.gauge(obs::Gauge::DecodedSites),
              static_cast<std::uint64_t>(d.decoded_sites));
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
 *  --jobs N` (the collector alone). */
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
    fuzz::runFuzz(fo);
    obs::MetricsShard m;
    col.drainInto(m);
    return m;
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

TEST(LadderEndIdentityTest, ClassifyAllReconcilesWithParent)
{
    const obs::MetricsShard one = classifyAllExport(1);
    const obs::MetricsShard four = classifyAllExport(4);
    EXPECT_EQ(obs::metricsJson(one), obs::metricsJson(four));
    expectLadderIdentity(one, 147620);
    // The ledger absorbs each state's cumulative counters, so it is
    // the same whether a primary ran its tail or adopted it.
    EXPECT_EQ(one.counter(obs::Counter::ClassifySteps), 211272u);
}

/**
 * The work of the runs the fuzz oracle no longer repeats, at fuzz
 * seed 42 budget 200, each run measured on its own under a fresh
 * collector as interp.steps + ladder.steps_reused -
 * ladder.tail_steps. Per deep program: the detections of the jobs,
 * explore, Ma and k re-runs, plus both sym runs' when the program
 * declares inputs (they now classify the primary run's detection),
 * and for programs with inputs the sym block's copy of the stage-1
 * baseline's classification (it now reuses the k block's).
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

    const fuzz::FuzzOptions fo;
    const fuzz::OracleOptions &oo = fo.oracle;
    core::PortendOptions full;
    full.mp = oo.mp;
    full.ma = oo.ma;
    full.max_steps = oo.max_steps;
    full.executor_max_states = oo.executor_max_states;
    full.detection_seed = fo.detection_seed;
    full.explore = oo.explore;
    full.jobs = 1;

    core::PortendOptions jobs2 = full;
    jobs2.jobs = 2;
    core::PortendOptions random = full;
    random.explore = explore::ExploreMode::Random;
    core::PortendOptions wide = full;
    wide.ma = full.ma * 2;
    core::PortendOptions lo = full;
    lo.mp = 1;
    lo.ma = 1;
    lo.multi_path = false;
    lo.multi_schedule = false;

    std::uint64_t removed = 0;
    int deep = 0;
    int with_inputs = 0;
    for (int i = 0; i < 200; i += fo.deep_every) {
        const fuzz::GeneratedProgram gen =
            fuzz::generateProgram(42, i, fo.gen);
        EXPECT_TRUE(gen.verify_errors.empty()) << "index " << i;
        const ir::Program &prog = gen.program;
        deep += 1;
        std::vector<core::PortendOptions> detections = {jobs2, random,
                                                        wide, lo};
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

TEST(LadderEndIdentityTest, FuzzSeed42ReconcilesWithParent)
{
    const obs::MetricsShard one = fuzzExport(1);
    const obs::MetricsShard four = fuzzExport(4);
    EXPECT_EQ(obs::metricsJson(one), obs::metricsJson(four));
    // The oracle's work at 2d1cc54, less the runs it stopped
    // repeating since.
    expectLadderIdentity(one, 2515494 - removedOracleSteps());
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
// JSON-lines telemetry
// ---------------------------------------------------------------------------

TEST(ProgressTest, OneClusterEventPerClassifiedCluster)
{
    SinkGuard guard;
    std::ostringstream sink;
    obs::Progress progress(sink);
    obs::setProgress(&progress);
    core::PortendResult res = runWorkload("rw", 2);
    obs::setProgress(nullptr);

    std::size_t cluster_lines = 0;
    std::size_t schedule_lines = 0;
    std::istringstream is(sink.str());
    std::string line;
    while (std::getline(is, line)) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        if (line.find("\"event\": \"cluster\"") != std::string::npos)
            cluster_lines += 1;
        if (line.find("\"event\": \"schedule\"") != std::string::npos)
            schedule_lines += 1;
    }
    EXPECT_EQ(cluster_lines, res.reports.size());
    // rw reaches multi-schedule exploration, so schedule events flow.
    EXPECT_GT(schedule_lines, 0u);
}

TEST(ProgressTest, VerdictsUnchangedWithEverySinkInstalled)
{
    core::PortendResult plain = runWorkload("dcl", 2);

    SinkGuard guard;
    obs::Collector collector;
    obs::Tracer tracer;
    std::ostringstream sink;
    obs::Progress progress(sink);
    obs::setCollector(&collector);
    obs::setTracer(&tracer);
    obs::setProgress(&progress);
    core::PortendResult observed = runWorkload("dcl", 2);
    obs::setCollector(nullptr);
    obs::setTracer(nullptr);
    obs::setProgress(nullptr);

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
