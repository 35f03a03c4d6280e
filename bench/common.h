/**
 * @file
 * Shared helpers for the evaluation harnesses (one binary per paper
 * table/figure). Each harness prints rows in the shape of the
 * paper's Tables 1-5 and Figures 7/9/10.
 */

#ifndef PORTEND_BENCH_COMMON_H
#define PORTEND_BENCH_COMMON_H

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "portend/portend.h"
#include "support/stats.h"
#include "workloads/registry.h"

namespace portend::bench {

/** One workload's full pipeline result. */
struct WorkloadRun
{
    workloads::Workload workload;
    core::PortendResult result;
};

/** Run the full Portend pipeline over @p name. */
inline WorkloadRun
runWorkload(const std::string &name, core::PortendOptions opts = {})
{
    WorkloadRun run;
    run.workload = workloads::buildWorkload(name);
    core::Portend tool(run.workload.program, opts);
    run.result = tool.run();
    return run;
}

/** Ground truth entry for one classified report (by cell name). */
inline const workloads::ExpectedRace *
truthFor(const WorkloadRun &run, const core::PortendReport &report,
         std::multimap<std::string, const workloads::ExpectedRace *>
             &pool)
{
    std::string cell = run.workload.program.cellName(
        report.cluster.representative.cell);
    auto it = pool.find(cell);
    if (it == pool.end())
        return nullptr;
    const workloads::ExpectedRace *e = it->second;
    pool.erase(it);
    return e;
}

/** Build the consumable ground-truth pool for a run. */
inline std::multimap<std::string, const workloads::ExpectedRace *>
truthPool(const WorkloadRun &run)
{
    std::multimap<std::string, const workloads::ExpectedRace *> pool;
    for (const auto &e : run.workload.expected)
        pool.insert({e.cell, &e});
    return pool;
}

/** Accuracy of a run's classifications against ground truth. */
inline double
accuracyVsTruth(const WorkloadRun &run)
{
    auto pool = truthPool(run);
    int correct = 0;
    int total = 0;
    for (const auto &r : run.result.reports) {
        const workloads::ExpectedRace *e = truthFor(run, r, pool);
        total += 1;
        if (e && r.classification.cls == e->truth)
            correct += 1;
    }
    // Undetected expected races also count against accuracy.
    total += static_cast<int>(pool.size());
    return total ? 100.0 * correct / total : 100.0;
}

/** Print a horizontal rule. */
inline void
rule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

} // namespace portend::bench

#endif // PORTEND_BENCH_COMMON_H
