/** @file Determinism and accounting tests for the parallel
 *  classification scheduler. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "portend/portend.h"
#include "portend/scheduler.h"
#include "workloads/registry.h"

namespace portend::core {
namespace {

/** Run one workload's full pipeline with the given worker count. */
PortendResult
runWith(const workloads::Workload &w, int jobs,
        std::uint64_t seed = 1)
{
    PortendOptions opts;
    opts.jobs = jobs;
    opts.detection_seed = seed;
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
    int schedules = 0;
    for (const PortendReport &r : res.reports) {
        steps += r.classification.stats.steps;
        schedules += r.classification.stats.schedules_explored;
    }
    EXPECT_EQ(res.scheduling.steps, steps);
    EXPECT_EQ(res.scheduling.schedules_explored, schedules);
    EXPECT_EQ(res.scheduling.clusters,
              static_cast<int>(res.reports.size()));
    EXPECT_GE(res.scheduling.jobs, 1);
    EXPECT_GT(res.scheduling.steps, 0u);
    EXPECT_GE(res.scheduling.seconds, 0.0);
}

TEST(SchedulerStatsTest, PerClusterWallTimeIsRecorded)
{
    workloads::Workload w = workloads::buildWorkload("bbuf");
    PortendResult res = runWith(w, 2);
    ASSERT_FALSE(res.reports.empty());
    for (const PortendReport &r : res.reports) {
        EXPECT_GT(r.classification.stats.seconds, 0.0);
        EXPECT_GE(r.classification.stats.queue_seconds, 0.0);
    }
}

TEST(SchedulerBudgetTest, GlobalBudgetsSliceDeterministically)
{
    workloads::Workload w = workloads::buildWorkload("bbuf");
    PortendOptions opts;
    opts.total_state_budget = 64;
    opts.total_step_budget = 4000000;
    rt::StaticInfo si(w.program);

    ClassificationScheduler sched(w.program, opts, si);
    for (std::size_t i = 0; i < 4; ++i) {
        PortendOptions sliced = sched.taskOptions(4, i);
        EXPECT_EQ(sliced.executor_max_states, 16) << "cluster " << i;
        EXPECT_EQ(sliced.max_steps, 1000000u) << "cluster " << i;
    }

    // Slices never exceed the per-task caps.
    PortendOptions one = sched.taskOptions(1, 0);
    EXPECT_EQ(one.executor_max_states, 64);
    EXPECT_EQ(one.max_steps, opts.max_steps);

    // Without global budgets the per-task caps pass through.
    PortendOptions unbudgeted;
    ClassificationScheduler plain(w.program, unbudgeted, si);
    PortendOptions same = plain.taskOptions(8, 3);
    EXPECT_EQ(same.executor_max_states,
              unbudgeted.executor_max_states);
    EXPECT_EQ(same.max_steps, unbudgeted.max_steps);
}

// Budgets that do not divide evenly must not lose their remainder:
// the first `total % n` clusters carry one extra unit and the slices
// sum back to the exact global budget.
TEST(SchedulerBudgetTest, SliceRemainderIsDistributed)
{
    workloads::Workload w = workloads::buildWorkload("bbuf");
    PortendOptions opts;
    opts.total_state_budget = 65;      // 65 = 4*16 + 1
    opts.total_step_budget = 4000003;  // 4000003 = 4*1000000 + 3
    rt::StaticInfo si(w.program);
    ClassificationScheduler sched(w.program, opts, si);

    int state_sum = 0;
    std::uint64_t step_sum = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        PortendOptions sliced = sched.taskOptions(4, i);
        state_sum += sliced.executor_max_states;
        step_sum += sliced.max_steps;
        // The remainder lands on the lowest indices, one unit each.
        EXPECT_EQ(sliced.executor_max_states, i == 0 ? 17 : 16)
            << "cluster " << i;
        EXPECT_EQ(sliced.max_steps, i < 3 ? 1000001u : 1000000u)
            << "cluster " << i;
    }
    EXPECT_EQ(state_sum, opts.total_state_budget);
    EXPECT_EQ(step_sum, opts.total_step_budget);
}

// The scheduler's ladder accounting: one build replay per batch, and
// a rung for every cluster the replay reached.
TEST(SchedulerLadderTest, LadderIsBuiltOncePerBatch)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult res = runWith(w, 2);
    ASSERT_FALSE(res.reports.empty());
    EXPECT_GT(res.scheduling.ladder_rungs, 0);
    EXPECT_LE(res.scheduling.ladder_rungs, res.scheduling.clusters);
    EXPECT_GT(res.scheduling.ladder_steps, 0u);
    // Every covered cluster saves at least its own prefix replay.
    EXPECT_GE(res.scheduling.ladder_covered_steps,
              static_cast<std::uint64_t>(res.scheduling.ladder_rungs));
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

/** Full pipeline under an explicit explorer and worker count. */
PortendResult
runWithExplorer(const workloads::Workload &w, explore::ExploreMode m,
                int jobs, int ma = 4)
{
    PortendOptions opts;
    opts.jobs = jobs;
    opts.ma = ma;
    opts.explore = m;
    opts.semantic_predicates = w.semantic_predicates;
    Portend tool(w.program, opts);
    return tool.run();
}

// The explorer is job-local state driven only by its own cluster's
// runs: dpor verdicts, k counts, distinct-schedule ledgers, and the
// Fig. 6 report bytes are identical across --jobs values. (The same
// byte streams are pinned by the golden suite, which CI runs under
// both the regular and TSan builds — cross-build identity rides on
// that.)
TEST(ExplorerDeterminismTest, DporIdenticalAcrossJobs)
{
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        PortendResult seq =
            runWithExplorer(w, explore::ExploreMode::Dpor, 1);
        PortendResult par =
            runWithExplorer(w, explore::ExploreMode::Dpor, 4);

        ASSERT_EQ(seq.reports.size(), par.reports.size()) << name;
        for (std::size_t i = 0; i < seq.reports.size(); ++i) {
            const Classification &a = seq.reports[i].classification;
            const Classification &b = par.reports[i].classification;
            EXPECT_EQ(a.cls, b.cls) << name << " cluster " << i;
            EXPECT_EQ(a.k, b.k) << name << " cluster " << i;
            EXPECT_EQ(a.stats.distinct_schedules,
                      b.stats.distinct_schedules)
                << name << " cluster " << i;
            EXPECT_EQ(a.stats.schedules_explored,
                      b.stats.schedules_explored)
                << name << " cluster " << i;
            EXPECT_EQ(a.evidence_signature, b.evidence_signature)
                << name << " cluster " << i;
            EXPECT_EQ(a.evidence_schedule, b.evidence_schedule)
                << name << " cluster " << i;
        }
        EXPECT_EQ(reportText(w.program, seq),
                  reportText(w.program, par))
            << name;
        EXPECT_EQ(seq.scheduling.distinct_schedules,
                  par.scheduling.distinct_schedules)
            << name;
    }
}

// Same contract for the legacy random explorer (whose runs the dpor
// random phase must reproduce seed-for-seed).
TEST(ExplorerDeterminismTest, RandomIdenticalAcrossJobs)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult seq =
        runWithExplorer(w, explore::ExploreMode::Random, 1);
    PortendResult par =
        runWithExplorer(w, explore::ExploreMode::Random, 4);
    EXPECT_EQ(reportText(w.program, seq), reportText(w.program, par));
}

// Rerunning the identical dpor configuration twice is byte-stable —
// the explorer has no hidden wall-clock or address-order state
// (this is what makes the TSan build's golden runs meaningful).
TEST(ExplorerDeterminismTest, DporIsRunToRunStable)
{
    workloads::Workload w = workloads::buildWorkload("ctrace");
    PortendResult one =
        runWithExplorer(w, explore::ExploreMode::Dpor, 2);
    PortendResult two =
        runWithExplorer(w, explore::ExploreMode::Dpor, 2);
    EXPECT_EQ(reportText(w.program, one), reportText(w.program, two));
    EXPECT_EQ(one.scheduling.distinct_schedules,
              two.scheduling.distinct_schedules);
}

// The batch ledger aggregates the per-cluster distinct-schedule
// counts exactly (scheduler accounting for the new stat).
TEST(SchedulerStatsTest, DistinctScheduleLedgerSums)
{
    workloads::Workload w = workloads::buildWorkload("pbzip2");
    PortendResult res = runWith(w, 2);
    int distinct = 0;
    for (const PortendReport &r : res.reports) {
        EXPECT_LE(r.classification.stats.distinct_schedules,
                  r.classification.stats.schedules_explored);
        distinct += r.classification.stats.distinct_schedules;
    }
    EXPECT_EQ(res.scheduling.distinct_schedules, distinct);
}

// classifyRace now reuses the facade's analyzer (and its hoisted
// StaticInfo): repeated calls agree with each other and with the
// batch verdict for the same race.
TEST(SchedulerReuseTest, ClassifyRaceReusesAnalyzer)
{
    workloads::Workload w = workloads::buildWorkload("avv");
    PortendOptions opts;
    opts.semantic_predicates = w.semantic_predicates;
    Portend tool(w.program, opts);
    DetectionResult det = tool.detect();
    ASSERT_FALSE(det.clusters.empty());

    const race::RaceReport &race = det.clusters[0].representative;
    Classification first = tool.classifyRace(race, det.trace);
    Classification second = tool.classifyRace(race, det.trace);
    EXPECT_EQ(first.cls, second.cls);
    EXPECT_EQ(first.k, second.k);
    EXPECT_EQ(first.detail, second.detail);
}

// ---------------------------------------------------------------------------
// Helper threads outlive a batch: each calling thread keeps a pool of
// jobs - 1 helpers and runs one drain loop itself.
// ---------------------------------------------------------------------------

/** Workloads with at least four clusters, so --jobs 4 uses four
 *  drain loops. */
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
            PortendResult res = runWith(w, jobs);
            EXPECT_EQ(res.scheduling.jobs,
                      std::min<int>(jobs, res.scheduling.clusters));
            out.push_back(reportText(w.program, res));
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
    // 4 needs three and rebuilds the pool, and the next --jobs 2
    // batch reuses those three.
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
