/**
 * @file
 * Observability overhead gate (PR 8).
 *
 * The observability layer's contract is "zero-cost when off": every
 * instrumentation site is one relaxed atomic load and a branch, so a
 * run with no sinks installed must stay within 2% of the interpreter
 * rebuild's throughput gate. This harness measures steps/sec on the
 * interp_bench micro-workloads under three configurations:
 *
 *   disabled  no sinks installed (the default production state)
 *   metrics   process-wide Collector installed
 *   full      Collector + Tracer installed
 *
 * and gates `disabled` against the same pre-rebuild baselines as
 * bench_interp_bench: steps/sec must reach
 * (1 - overhead_budget) * min_speedup * baseline. The enabled
 * configurations are reported (they cost whatever they cost — the
 * user asked for the data) but not gated.
 *
 * Emits one JSON object (BENCH_observe.json in CI). Exit status: 0
 * when every workload passes the disabled gate, 1 otherwise.
 *
 * Usage: bench_observe_bench [reps] [trials] [overhead_budget]
 *   reps             interpreter runs per trial (default 2000)
 *   trials           trials per configuration, best taken (default 5)
 *   overhead_budget  allowed disabled-path overhead (default 0.02)
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "rt/interpreter.h"
#include "support/clock.h"
#include "support/observe.h"
#include "support/trace.h"
#include "workloads/registry.h"

namespace {

using namespace portend;

/** The speedup floor bench_interp_bench enforces; the disabled
 *  observability path must not eat into it by more than the
 *  overhead budget. */
constexpr double kMinSpeedup = 3.0;

/** Pre-rebuild steps/sec (same table as bench_interp_bench). */
struct Workload
{
    const char *name;
    double baseline_steps_per_sec;
    int reps;
};

constexpr Workload kWorkloads[] = {
    {"avv", 4585520.0, 2000},
    {"rw", 4328803.0, 2000},
    {"dbm", 4291936.0, 2000},
    {"bbuf", 3483726.0, 2000},
};

double
measureTrial(const ir::Program &p, int reps)
{
    std::uint64_t total_steps = 0;
    const std::uint64_t t0 = steadyNanos();
    for (int i = 0; i < reps; ++i) {
        rt::ExecOptions eo;
        eo.preempt_on_memory = true;
        rt::Interpreter interp(p, eo);
        interp.run();
        total_steps += interp.state().stats.steps;
    }
    const double sec = steadySeconds(t0, steadyNanos());
    return sec > 0.0 ? static_cast<double>(total_steps) / sec : 0.0;
}

double
best(const ir::Program &p, int reps, int trials)
{
    double out = 0.0;
    for (int t = 0; t < trials; ++t) {
        const double sps = measureTrial(p, reps);
        if (sps > out)
            out = sps;
    }
    return out;
}

struct Row
{
    std::string name;
    double disabled = 0.0;
    double metrics = 0.0;
    double full = 0.0;
    double speedup = 0.0; ///< disabled vs pre-rebuild baseline
    bool pass = false;
};

} // namespace

int
main(int argc, char **argv)
{
    const int reps = argc > 1 ? std::atoi(argv[1]) : 2000;
    const int trials = argc > 2 ? std::atoi(argv[2]) : 5;
    const double budget = argc > 3 ? std::atof(argv[3]) : 0.02;

    std::vector<Row> rows;
    bool pass = true;
    for (const Workload &w : kWorkloads) {
        workloads::Workload wl = workloads::buildWorkload(w.name);
        const int r = reps < w.reps ? reps : w.reps;

        // Warmup: decode + pristine-state caches.
        for (int i = 0; i < 3; ++i) {
            rt::ExecOptions eo;
            eo.preempt_on_memory = true;
            rt::Interpreter interp(wl.program, eo);
            interp.run();
        }

        Row row;
        row.name = w.name;
        row.disabled = best(wl.program, r, trials);

        obs::Collector collector;
        obs::setCollector(&collector);
        row.metrics = best(wl.program, r, trials);

        obs::Tracer tracer;
        obs::setTracer(&tracer);
        row.full = best(wl.program, r, trials);
        obs::setTracer(nullptr);
        obs::setCollector(nullptr);

        row.speedup = row.disabled / w.baseline_steps_per_sec;
        row.pass = row.speedup >= (1.0 - budget) * kMinSpeedup;
        pass = pass && row.pass;
        rows.push_back(row);
    }

    std::printf("{\n  \"bench\": \"observe\",\n");
    std::printf("  \"reps\": %d,\n", reps);
    std::printf("  \"trials\": %d,\n", trials);
    std::printf("  \"overhead_budget\": %.3f,\n", budget);
    std::printf("  \"required_speedup\": %.2f,\n",
                (1.0 - budget) * kMinSpeedup);
    std::printf("  \"workloads\": [\n");
    bool first = true;
    for (const Row &r : rows) {
        const double metrics_ovh =
            r.disabled > 0.0 ? 1.0 - r.metrics / r.disabled : 0.0;
        const double full_ovh =
            r.disabled > 0.0 ? 1.0 - r.full / r.disabled : 0.0;
        std::printf("%s    {\"name\": \"%s\", "
                    "\"disabled_steps_per_sec\": %.0f, "
                    "\"metrics_steps_per_sec\": %.0f, "
                    "\"full_steps_per_sec\": %.0f, "
                    "\"metrics_overhead\": %.4f, "
                    "\"full_overhead\": %.4f, "
                    "\"speedup\": %.2f, "
                    "\"pass\": %s}",
                    first ? "" : ",\n", r.name.c_str(), r.disabled,
                    r.metrics, r.full, metrics_ovh, full_ovh,
                    r.speedup, r.pass ? "true" : "false");
        first = false;
    }
    std::printf("\n  ],\n");
    std::printf("  \"pass\": %s\n", pass ? "true" : "false");
    std::printf("}\n");
    return pass ? 0 : 1;
}
