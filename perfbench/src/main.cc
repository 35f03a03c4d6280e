/**
 * @file
 * portend_bench: one closed-loop benchmark run of one workload.
 *
 *   portend_bench --workload triage|fuzz|serve --seed <n>
 *                 --seconds <s> --trace 0|1 --golden-dir <dir>
 *                 [--fuzz-seed <n>] [--spans-out <file>]
 *
 * Prints every metric by name with its unit, the work fingerprint,
 * and as its last line one JSON object with the result. The run
 * writes its serve state and sockets under the working directory.
 * perfbench/run.py builds this binary and is the supported entry
 * point.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "measure.h"

namespace {

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "portend_bench: %s\n", msg.c_str());
    std::exit(2);
}

std::uint64_t
parseU64(const char *flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v, &end, 10);
    if (!*v || *end || errno || v[0] == '-')
        usage(std::string(flag) + ": not a non-negative integer: " + v);
    return x;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options o;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(a + " needs a value");
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseU64("--seed", v);
        else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseU64("--seconds", v));
            have_seconds = true;
        } else if (a == "--trace")
            o.trace = parseU64("--trace", v) != 0;
        else if (a == "--fuzz-seed")
            o.fuzz_seed = parseU64("--fuzz-seed", v);
        else if (a == "--golden-dir")
            o.golden_dir = v;
        else if (a == "--spans-out")
            o.spans_out = v;
        else
            usage("unknown option " + a);
    }
    if (!have_seconds || o.seconds < 1)
        usage("--seconds must be at least 1");

    perfbench::Report rep;
    int rc = 0;
    if (o.workload == "triage") {
        if (o.golden_dir.empty())
            usage("triage needs --golden-dir");
        rc = perfbench::runTriage(o, rep);
    } else if (o.workload == "fuzz") {
        rc = perfbench::runFuzz(o, rep);
    } else if (o.workload == "serve") {
        rc = perfbench::runServe(o, rep);
    } else {
        usage("unknown workload: " + o.workload);
    }
    if (rc != 0)
        return rc;
    rep.print();
    return 0;
}
