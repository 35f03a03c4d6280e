/**
 * @file
 * Interpreter hot-path throughput benchmark.
 *
 * Measures end-to-end interpretation speed (construct + run, the way
 * every analysis consumes the interpreter) in steps/sec over the five
 * registry micro-workloads plus a tight 20k-iteration arithmetic
 * loop, and compares against the pre-rebuild interpreter's numbers
 * (map-keyed dynamic counters, per-instruction program-tree decoding,
 * expression-boxed concrete values, unconditional event
 * construction), hardcoded below as measured on the reference machine
 * with the same harness.
 *
 * Each workload takes the best of several trials so a loaded CI
 * machine gets every chance to show steady-state speed; the gate is
 * on the speedup ratio, not on absolute time.
 *
 * Also reported per workload: heap allocations per run (global
 * operator new interposition) — the rebuild's tagged values, pooled
 * register arenas, and pristine-state reset keep this flat.
 *
 * Emits one JSON object. Exit status: 0 when every workload reaches
 * the speedup floor, 1 otherwise (CI gates on it).
 *
 * Usage: bench_interp_bench [reps] [trials] [min_speedup]
 *   reps         interpreter runs per micro trial (default 4000)
 *   trials       trials per workload, best taken (default 5)
 *   min_speedup  gate floor vs the pre-rebuild baseline (default 3.0)
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "rt/interpreter.h"
#include "support/clock.h"
#include "workloads/registry.h"

// --- Allocation accounting (bench-local operator new interposition).
static std::uint64_t g_allocs = 0;

void *
operator new(std::size_t n)
{
    g_allocs += 1;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace portend;
using ir::I;
using ir::R;
using K = sym::ExprKind;

/**
 * Pre-rebuild steps/sec on the reference machine (same harness,
 * RelWithDebInfo, preempt_on_memory on for the micros). The rebuild
 * must beat these by min_speedup on the same machine class.
 */
struct Baseline
{
    const char *name;
    double steps_per_sec;
    bool preempt;
    int reps;
};

constexpr Baseline kBaselines[] = {
    {"avv", 4585520.0, true, 4000},
    {"rw", 4328803.0, true, 4000},
    {"dbm", 4291936.0, true, 4000},
    {"dcl", 4488109.0, true, 4000},
    {"bbuf", 3483726.0, true, 4000},
    {"loop20k", 7088162.0, false, 50},
};

/** The tight arithmetic loop: 20k iterations of load/add/store/br. */
ir::Program
loopProgram(int iters)
{
    ir::ProgramBuilder pb("interp_bench_loop");
    ir::GlobalId g = pb.global("acc");
    auto &m = pb.function("main", 0);
    ir::BlockId e = m.block("entry");
    ir::BlockId loop = m.block("loop");
    ir::BlockId done = m.block("done");
    m.to(e);
    ir::Reg i = m.iconst(iters);
    m.jmp(loop);
    m.to(loop);
    ir::Reg v = m.load(g);
    m.store(g, I(0), R(m.bin(K::Add, R(v), I(1))));
    m.binInto(i, K::Sub, R(i), I(1));
    m.br(R(m.bin(K::Sgt, R(i), I(0))), loop, done);
    m.to(done);
    m.halt();
    return pb.build();
}

/** One measured workload. */
struct Row
{
    std::string name;
    double steps_per_sec = 0.0;
    double speedup = 0.0;
    std::uint64_t steps_per_run = 0;
    std::uint64_t allocs_per_run = 0;
};

double
measureTrial(const ir::Program &p, bool preempt, int reps,
             std::uint64_t *steps_out)
{
    std::uint64_t total_steps = 0;
    const std::uint64_t t0 = steadyNanos();
    for (int i = 0; i < reps; ++i) {
        rt::ExecOptions eo;
        eo.preempt_on_memory = preempt;
        rt::Interpreter interp(p, eo);
        interp.run();
        total_steps += interp.state().stats.steps;
    }
    const double sec = steadySeconds(t0, steadyNanos());
    *steps_out = total_steps;
    return sec > 0.0 ? static_cast<double>(total_steps) / sec : 0.0;
}

Row
measure(const std::string &name, const ir::Program &p,
        const Baseline &base, int reps, int trials)
{
    Row row;
    row.name = name;
    const int r = base.reps < reps ? base.reps : reps;

    // Warmup: populates the decode and pristine-state caches and
    // faults in the text.
    for (int i = 0; i < 3; ++i) {
        rt::ExecOptions eo;
        eo.preempt_on_memory = base.preempt;
        rt::Interpreter interp(p, eo);
        interp.run();
    }

    std::uint64_t steps = 0;
    for (int t = 0; t < trials; ++t) {
        const double sps = measureTrial(p, base.preempt, r, &steps);
        if (sps > row.steps_per_sec)
            row.steps_per_sec = sps;
    }
    row.steps_per_run = steps / static_cast<std::uint64_t>(r);
    row.speedup = row.steps_per_sec / base.steps_per_sec;

    // Allocation count of one construct+run cycle, steady-state.
    const std::uint64_t a0 = g_allocs;
    {
        rt::ExecOptions eo;
        eo.preempt_on_memory = base.preempt;
        rt::Interpreter interp(p, eo);
        interp.run();
    }
    row.allocs_per_run = g_allocs - a0;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const int reps = argc > 1 ? std::atoi(argv[1]) : 4000;
    const int trials = argc > 2 ? std::atoi(argv[2]) : 5;
    const double min_speedup = argc > 3 ? std::atof(argv[3]) : 3.0;

    std::vector<Row> rows;
    for (const Baseline &base : kBaselines) {
        if (std::string(base.name) == "loop20k") {
            rows.push_back(measure(base.name, loopProgram(20000), base,
                                   reps, trials));
        } else {
            auto w = workloads::buildWorkload(base.name);
            rows.push_back(
                measure(base.name, w.program, base, reps, trials));
        }
    }

    bool pass = true;
    double min_ratio = 0.0;
    for (const Row &r : rows) {
        if (min_ratio == 0.0 || r.speedup < min_ratio)
            min_ratio = r.speedup;
        if (r.speedup < min_speedup)
            pass = false;
    }

    std::printf("{\n  \"bench\": \"interp\",\n");
    std::printf("  \"reps\": %d,\n", reps);
    std::printf("  \"trials\": %d,\n", trials);
    std::printf("  \"workloads\": [\n");
    bool first = true;
    for (const Row &r : rows) {
        std::printf("%s    {\"name\": \"%s\", "
                    "\"steps_per_run\": %llu, "
                    "\"steps_per_sec\": %.0f, "
                    "\"speedup\": %.2f, "
                    "\"allocs_per_run\": %llu}",
                    first ? "" : ",\n", r.name.c_str(),
                    static_cast<unsigned long long>(r.steps_per_run),
                    r.steps_per_sec, r.speedup,
                    static_cast<unsigned long long>(r.allocs_per_run));
        first = false;
    }
    std::printf("\n  ],\n");
    std::printf("  \"summary\": {\n");
    std::printf("    \"min_speedup\": %.2f,\n", min_ratio);
    std::printf("    \"required_speedup\": %.2f\n", min_speedup);
    std::printf("  },\n");
    std::printf("  \"pass\": %s\n", pass ? "true" : "false");
    std::printf("}\n");
    return pass ? 0 : 1;
}
