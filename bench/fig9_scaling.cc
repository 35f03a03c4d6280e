/**
 * @file
 * Figure 9: classification time as a function of the number of
 * preemption points and the number of symbolic-input-dependent
 * branches, for representative races (one or more per workload, in
 * the paper's sqlite1/bbuf1/ctrace1/... naming).
 */

#include "bench/common.h"

#include "portend/analyzer.h"

using namespace portend;

int
main()
{
    std::printf("Figure 9: classification time vs preemptions and "
                "dependent branches\n");
    bench::rule(84);
    std::printf("%-14s %14s %18s %12s %12s\n", "race id",
                "preemptions", "dependent branches", "time (ms)",
                "steps");
    bench::rule(84);

    struct Pick
    {
        const char *app;
        int count; ///< how many races of this app to sample
    };
    const Pick picks[] = {{"sqlite", 1}, {"bbuf", 1}, {"ctrace", 1},
                          {"fmm", 1},    {"ocean", 1},
                          {"memcached", 3}};

    for (const auto &pick : picks) {
        workloads::Workload w = workloads::buildWorkload(pick.app);
        core::Portend tool(w.program, core::PortendOptions{});
        core::DetectionResult det = tool.detect();
        core::RaceAnalyzer analyzer(w.program,
                                    core::PortendOptions{});
        int done = 0;
        for (const auto &c : det.clusters) {
            if (done >= pick.count)
                break;
            Stopwatch sw;
            core::Classification cls =
                analyzer.classify(c.representative, det.trace);
            double ms = sw.seconds() * 1000.0;
            std::printf("%-11s%-3d %14llu %18llu %12.3f %12llu\n",
                        pick.app, done + 1,
                        static_cast<unsigned long long>(
                            cls.metrics.counter(
                                obs::Counter::ClassifyPreemptions)),
                        static_cast<unsigned long long>(
                            cls.metrics.counter(
                                obs::Counter::ClassifySymBranches)),
                        ms,
                        static_cast<unsigned long long>(
                            cls.metrics.counter(
                                obs::Counter::ClassifySteps)));
            done += 1;
        }
    }
    bench::rule(84);
    std::printf("Expected shape (paper): time grows with preemption "
                "points and dependent\nbranches, not with program "
                "size.\n");
    return 0;
}
