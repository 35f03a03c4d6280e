/** @file Determinism and accounting tests for the parallel
 *  classification scheduler. */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flip_gadget.h"
#include "portend/portend.h"
#include "portend/scheduler.h"
#include "workloads/registry.h"

namespace portend::core {
namespace {

/** Run one workload's full pipeline with the given worker count. */
PortendResult
runWith(const workloads::Workload &w, int jobs)
{
    PortendOptions opts;
    opts.jobs = jobs;
    opts.semantic_predicates = w.semantic_predicates;
    Portend tool(w.program, opts);
    return tool.run();
}

/** Concatenated Fig. 6 report text of a pipeline result. */
std::string
reportText(const ir::Program &prog, const PortendResult &res)
{
    std::ostringstream os;
    for (const PortendReport &r : res.reports)
        os << formatReport(prog, r);
    return os.str();
}

// The headline contract: a full-suite run with jobs=4 produces the
// same verdicts, k values, and Fig. 6 report bytes as jobs=1 at the
// same seed. Parallelism must be a pure throughput dial.
TEST(SchedulerDeterminismTest, FullSuiteIdenticalAcrossJobs)
{
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        PortendResult seq = runWith(w, 1);
        PortendResult par = runWith(w, 4);

        ASSERT_EQ(seq.reports.size(), par.reports.size()) << name;
        for (std::size_t i = 0; i < seq.reports.size(); ++i) {
            const Classification &a = seq.reports[i].classification;
            const Classification &b = par.reports[i].classification;
            EXPECT_EQ(a.cls, b.cls) << name << " cluster " << i;
            EXPECT_EQ(a.k, b.k) << name << " cluster " << i;
            EXPECT_EQ(a.viol, b.viol) << name << " cluster " << i;
            EXPECT_EQ(a.detail, b.detail) << name << " cluster " << i;
        }
        EXPECT_EQ(reportText(w.program, seq),
                  reportText(w.program, par))
            << name;
    }
}

// Detection is untouched by the scheduler refactor: same clusters,
// same trace, same step counts for any jobs value.
TEST(SchedulerDeterminismTest, DetectionUnaffectedByJobs)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult seq = runWith(w, 1);
    PortendResult par = runWith(w, 4);
    EXPECT_EQ(seq.detection.dynamic_races, par.detection.dynamic_races);
    EXPECT_EQ(seq.detection.clusters.size(),
              par.detection.clusters.size());
    EXPECT_EQ(seq.detection.steps, par.detection.steps);
}

TEST(SchedulerStatsTest, LedgerMatchesPerClusterStats)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult res = runWith(w, 2);
    ASSERT_FALSE(res.reports.empty());

    std::uint64_t steps = 0;
    std::uint64_t schedules = 0;
    for (const PortendReport &r : res.reports) {
        const obs::MetricsShard &c = r.classification.metrics;
        steps += c.counter(obs::Counter::ClassifySteps);
        schedules += c.counter(obs::Counter::ClassifySchedules);
    }
    const obs::MetricsShard &m = res.metrics;
    EXPECT_EQ(m.counter(obs::Counter::ClassifySteps), steps);
    EXPECT_EQ(m.counter(obs::Counter::ClassifySchedules), schedules);
    EXPECT_EQ(m.counter(obs::Counter::ClassifyClusters),
              res.reports.size());
    EXPECT_GT(steps, 0u);
}

TEST(SchedulerUnitsTest, EveryUnitCarriesTheBatchOptions)
{
    workloads::Workload w = workloads::buildWorkload("bbuf");
    PortendOptions opts;
    opts.max_steps = 4000000;
    opts.executor_max_states = 64;
    rt::StaticInfo si(w.program);
    ClassificationScheduler sched(w.program, opts, si);

    const std::vector<ClusterUnit> units = sched.makeUnits(4);
    ASSERT_EQ(units.size(), 4u);
    for (std::size_t i = 0; i < units.size(); ++i) {
        EXPECT_EQ(units[i].index, i);
        EXPECT_EQ(units[i].opts.max_steps, opts.max_steps);
        EXPECT_EQ(units[i].opts.executor_max_states, 64);
    }
}

// The scheduler's ladder accounting: one build replay per batch, and
// a rung for every cluster the replay reached.
TEST(SchedulerLadderTest, LadderIsBuiltOncePerBatch)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult res = runWith(w, 2);
    ASSERT_FALSE(res.reports.empty());
    const obs::MetricsShard &m = res.metrics;
    const std::uint64_t rungs = m.counter(obs::Counter::LadderRungs);
    EXPECT_GT(rungs, 0u);
    EXPECT_LE(rungs, m.counter(obs::Counter::ClassifyClusters));
    EXPECT_GT(m.counter(obs::Counter::LadderBuildSteps), 0u);
    // Every covered cluster saves at least its own prefix replay.
    EXPECT_GE(m.counter(obs::Counter::LadderCoveredSteps), rungs);
}

TEST(SchedulerBudgetTest, JobsZeroResolvesToHardware)
{
    workloads::Workload w = workloads::buildWorkload("avv");
    PortendOptions opts;
    opts.jobs = 0;
    rt::StaticInfo si(w.program);
    ClassificationScheduler sched(w.program, opts, si);
    EXPECT_GE(sched.jobs(), 1);
}

/** The batch's distinct post-race interleavings, from the registry. */
std::uint64_t
distinctSchedules(const PortendResult &res)
{
    return res.metrics.counter(obs::Counter::ClassifyDistinctSchedules);
}

/** Full pipeline at Ma 4 under an explicit worker count. */
PortendResult
runPipeline(const workloads::Workload &w, int jobs)
{
    PortendOptions opts;
    opts.jobs = jobs;
    opts.ma = 4;
    opts.semantic_predicates = w.semantic_predicates;
    Portend tool(w.program, opts);
    return tool.run();
}

// The explorer is job-local state driven only by its own cluster's
// runs: dpor verdicts, k counts, distinct-schedule counters, and the
// Fig. 6 report bytes are identical across --jobs values. (The same
// byte streams are pinned by the golden suite, which CI runs under
// both the regular and TSan builds — cross-build identity rides on
// that.)
TEST(ExplorerDeterminismTest, DporIdenticalAcrossJobs)
{
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        PortendResult seq = runPipeline(w, 1);
        PortendResult par = runPipeline(w, 4);

        ASSERT_EQ(seq.reports.size(), par.reports.size()) << name;
        for (std::size_t i = 0; i < seq.reports.size(); ++i) {
            const Classification &a = seq.reports[i].classification;
            const Classification &b = par.reports[i].classification;
            EXPECT_EQ(a.cls, b.cls) << name << " cluster " << i;
            EXPECT_EQ(a.k, b.k) << name << " cluster " << i;
            EXPECT_EQ(
                a.metrics.counter(obs::Counter::ClassifyDistinctSchedules),
                b.metrics.counter(obs::Counter::ClassifyDistinctSchedules))
                << name << " cluster " << i;
            EXPECT_EQ(a.metrics.counter(obs::Counter::ClassifySchedules),
                      b.metrics.counter(obs::Counter::ClassifySchedules))
                << name << " cluster " << i;
            EXPECT_EQ(a.evidence_signature, b.evidence_signature)
                << name << " cluster " << i;
            EXPECT_EQ(a.evidence_schedule, b.evidence_schedule)
                << name << " cluster " << i;
        }
        EXPECT_EQ(reportText(w.program, seq),
                  reportText(w.program, par))
            << name;
        EXPECT_EQ(distinctSchedules(seq), distinctSchedules(par))
            << name;
    }
}

// Rerunning the identical dpor configuration twice is byte-stable —
// the explorer has no hidden wall-clock or address-order state
// (this is what makes the TSan build's golden runs meaningful).
TEST(ExplorerDeterminismTest, DporIsRunToRunStable)
{
    workloads::Workload w = workloads::buildWorkload("ctrace");
    PortendResult one = runPipeline(w, 2);
    PortendResult two = runPipeline(w, 2);
    EXPECT_EQ(reportText(w.program, one), reportText(w.program, two));
    EXPECT_EQ(distinctSchedules(one), distinctSchedules(two));
}

// The batch shard sums the verdicts' distinct-schedule counters
// exactly. Every cluster of the subject records at least one
// distinct schedule, so a batch that drops any cluster's verdict,
// the last one included, comes up short.
TEST(SchedulerStatsTest, DistinctScheduleLedgerSums)
{
    const ir::Program p = tests::flipGadget("racy_staggered", 3, 3);
    PortendOptions opts;
    opts.jobs = 2;
    PortendResult res = Portend(p, opts).run();
    ASSERT_GE(res.reports.size(), 2u);
    std::uint64_t distinct = 0;
    for (std::size_t i = 0; i < res.reports.size(); ++i) {
        const obs::MetricsShard &s = res.reports[i].classification.metrics;
        const std::uint64_t d =
            s.counter(obs::Counter::ClassifyDistinctSchedules);
        EXPECT_GE(d, 1u) << "cluster " << i;
        EXPECT_LE(d, s.counter(obs::Counter::ClassifySchedules))
            << "cluster " << i;
        distinct += d;
    }
    EXPECT_EQ(distinctSchedules(res), distinct);
}

// ---------------------------------------------------------------------------
// Helper threads outlive a batch: each calling thread keeps jobs - 1
// helpers and works as the batch's remaining worker itself.
// ---------------------------------------------------------------------------

/** Workloads with at least four clusters, so --jobs 4 uses four
 *  workers. */
std::vector<workloads::Workload>
helperWorkloads()
{
    std::vector<workloads::Workload> ws;
    for (const char *name : {"bbuf", "ocean", "ctrace"})
        ws.push_back(workloads::buildWorkload(name));
    return ws;
}

/** Threads of this process, or -1 without /proc/self/task. */
int
processThreads()
{
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/task", ec);
    int n = 0;
    for (; !ec && it != std::filesystem::directory_iterator();
         it.increment(ec)) {
        n += 1;
    }
    return ec ? -1 : n;
}

/**
 * Report bytes of every workload, batch after batch, at each --jobs
 * value of @p sequence in turn. @p helper_threads, when given, gets
 * the threads added since the call began, after each value.
 */
std::vector<std::string>
batchSequence(const std::vector<workloads::Workload> &ws,
              const std::vector<int> &sequence,
              std::vector<int> *helper_threads = nullptr)
{
    const int base = processThreads();
    std::vector<std::string> out;
    for (int jobs : sequence) {
        for (const workloads::Workload &w : ws) {
            out.push_back(reportText(w.program, runWith(w, jobs)));
        }
        if (helper_threads && base > 0)
            helper_threads->push_back(processThreads() - base);
    }
    return out;
}

TEST(SchedulerHelperTest, PoolGrowsThenIsReusedWithJobsOneBytes)
{
    const std::vector<workloads::Workload> ws = helperWorkloads();
    for (const workloads::Workload &w : ws)
        ASSERT_GE(runWith(w, 1).reports.size(), 4u) << w.program.name;
    const std::vector<std::string> want = batchSequence(ws, {1});

    // A fresh thread has no helpers yet: --jobs 2 starts one, --jobs
    // 4 needs three and starts two more, and the next --jobs 2 batch
    // keeps all three.
    std::vector<std::string> got;
    std::vector<int> helpers;
    std::thread t([&] { got = batchSequence(ws, {2, 4, 2}, &helpers); });
    t.join();
    ASSERT_EQ(got.size(), 3 * want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i % want.size()]) << "batch " << i;
    if (!helpers.empty()) {
        EXPECT_EQ(helpers, (std::vector<int>{1, 3, 3}));
    }
}

TEST(SchedulerHelperTest, ConcurrentCallersGetJobsOneBytes)
{
    const std::vector<workloads::Workload> ws = helperWorkloads();
    const std::vector<std::string> want = batchSequence(ws, {1});

    // Two threads, each with its own helpers, classify at once.
    std::vector<std::string> got[2];
    std::thread a([&] { got[0] = batchSequence(ws, {2, 4, 2}); });
    std::thread b([&] { got[1] = batchSequence(ws, {4, 2, 4}); });
    a.join();
    b.join();
    for (const std::vector<std::string> &g : got) {
        ASSERT_EQ(g.size(), 3 * want.size());
        for (std::size_t i = 0; i < g.size(); ++i)
            EXPECT_EQ(g[i], want[i % want.size()]) << "batch " << i;
    }
}

} // namespace
} // namespace portend::core
