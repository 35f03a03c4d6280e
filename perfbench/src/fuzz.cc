/**
 * @file
 * The `fuzz` workload: fuzz::runFuzz over a fixed program set (fuzz
 * seed from the command line, default 42), one job, no corpus or
 * campaign directory. One unit is one program's oracle verdict, timed
 * through the FuzzOptions::judge seam that wraps fuzz::runOracle.
 * Passes repeat the same programs, so every pass carries the same
 * hang tail: the alternate orderings of generated spin-flag programs
 * that run to the interpreter's step budget.
 */

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "fuzz/fuzzer.h"
#include "measure.h"
#include "support/hash.h"

namespace perfbench {

namespace {

using namespace portend;

/** Programs per pass. At fuzz seed 42 the tail rank of a run's
 *  samples then falls inside the cluster of step-budget programs. */
constexpr int kBudget = 1000;

/** Programs in each untimed warm-up campaign, and how many set-ups a
 *  run times (setup_s is their median). */
constexpr int kWarmBudget = 50;
constexpr int kSetupReps = 15;

/** One program's verdict as the judge saw it. */
struct Judged
{
    std::uint64_t index = 0;
    double cpu_ms = 0.0;       ///< process CPU of the oracle call
    std::uint64_t verdict = 0; ///< hash of report, trace and checks
};

std::uint64_t
verdictHash(const fuzz::OracleVerdict &v)
{
    std::uint64_t h = hashCombine(fnv1a(v.report_text), fnv1a(v.trace_text));
    for (const fuzz::CheckResult &c : v.checks)
        h = hashCombine(hashCombine(h, fnv1a(c.name)), c.ok ? 1 : 0);
    return h;
}

/** Campaign index of a generated program ("fuzz_s<seed>_i<index>"). */
std::uint64_t
indexOf(const ir::Program &prog, std::uint64_t fallback)
{
    const std::size_t at = prog.name.rfind("_i");
    if (at == std::string::npos)
        return fallback;
    return std::strtoull(prog.name.c_str() + at + 2, nullptr, 10);
}

/** Every Fig. 6 report in an oracle's report text: the cell, and the
 *  class with its parenthesized detail split off. */
std::vector<Verdict>
reportedVerdicts(const std::string &text)
{
    static const std::string kCell = "Data race during access to: ";
    static const std::string kClass = "  classification: ";
    std::vector<Verdict> out;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) {
        if (line.rfind(kCell, 0) == 0) {
            out.push_back({line.substr(kCell.size()), "", ""});
        } else if (line.rfind(kClass, 0) == 0 && !out.empty()) {
            const std::string cls = line.substr(kClass.size());
            const std::size_t paren = cls.find(" (");
            out.back().cls = cls.substr(0, paren);
            if (paren != std::string::npos && cls.back() == ')')
                out.back().violation =
                    cls.substr(paren + 2, cls.size() - paren - 3);
        }
    }
    return out;
}

struct Phase
{
    Calibrator cal; ///< process CPU per oracle call, calibrated
    std::uint64_t programs = 0;
    std::uint64_t judged = 0;
    std::uint64_t flagged = 0;
    std::uint64_t passes = 0;
    std::uint64_t cpu_ns = 0;
};

/** The work fingerprint of one pass. */
std::string
passFingerprint(const std::vector<Judged> &calls,
                const fuzz::FuzzResult &res)
{
    std::uint64_t h = kFnvOffset;
    for (const Judged &j : calls)
        h = hashCombine(hashCombine(h, j.index), j.verdict);
    return "verdicts=" + hex64(h) +
           " summary=" + hex64(fnv1a(res.summaryText())) +
           " programs=" + std::to_string(res.programs) +
           " flagged=" + std::to_string(res.flagged);
}

Phase
runPasses(const Options &o, SpanLog &log, Report &rep,
          std::string &reference,
          std::map<std::uint64_t, std::string> &reports)
{
    Phase ph;
    Calibrator &cal = ph.cal;
    std::vector<Judged> calls;
    fuzz::FuzzOptions fo;
    fo.budget = kBudget;
    fo.fuzz_seed = o.fuzz_seed;
    fo.jobs = 1;
    fo.judge = [&](const ir::Program &prog,
                   const fuzz::OracleOptions &oo) {
        Judged j;
        j.index = indexOf(prog, calls.size());
        fuzz::OracleVerdict v;
        {
            ScopedSpan span(log, "fuzz.oracle",
                            static_cast<std::int64_t>(j.index));
            const std::uint64_t c0 = processCpuNs();
            v = fuzz::runOracle(prog, oo);
            j.cpu_ms = nsToMs(processCpuNs() - c0);
        }
        {
            ScopedSpan span(log, "calibration", -1);
            cal.add(j.cpu_ms);
        }
        j.verdict = verdictHash(v);
        reports.try_emplace(j.index, v.report_text);
        calls.push_back(j);
        return v;
    };

    // The total excludes the calibration kernel runs inside the judge.
    cal.sample();
    const std::uint64_t cpu0 = processCpuNs() - cal.spentCpuNs();
    const std::uint64_t start = wallNs();
    do {
        calls.clear();
        fuzz::FuzzResult res;
        {
            ScopedSpan span(log, "fuzz.runFuzz",
                            static_cast<std::int64_t>(ph.passes));
            res = fuzz::runFuzz(fo);
        }
        ph.passes += 1;
        ph.programs += static_cast<std::uint64_t>(res.programs);
        ph.judged += calls.size();
        ph.flagged += static_cast<std::uint64_t>(res.flagged);
        rep.attempted += static_cast<std::uint64_t>(res.programs);
        if (calls.size() < static_cast<std::size_t>(res.programs))
            rep.failed += static_cast<std::uint64_t>(res.programs) -
                          calls.size();
        if (res.flagged != 0)
            rep.fail(std::to_string(res.flagged) +
                     " program(s) flagged by the oracle");
        const std::string fp = passFingerprint(calls, res);
        if (reference.empty())
            reference = fp;
        else if (fp != reference)
            rep.fail("pass work fingerprint " + fp + " differs from " +
                     reference);
    } while (nsToS(wallNs() - start) < o.seconds);
    cal.sample();
    ph.cpu_ns = processCpuNs() - cal.spentCpuNs() - cpu0;
    return ph;
}

/** Calibrated programs judged per CPU second of a phase. */
double
perCpuSecond(const Phase &ph)
{
    return ph.cpu_ns ? static_cast<double>(ph.judged) / nsToS(ph.cpu_ns) *
                           ph.cal.factor()
                     : 0.0;
}

/** Accuracy against the generator's ground truth, regenerated from
 *  (fuzz seed, index) outside the timed region. */
double
accuracyPct(const Options &o,
            const std::map<std::uint64_t, std::string> &reports)
{
    std::uint64_t correct = 0, total = 0;
    const fuzz::GeneratorOptions gen;
    for (const auto &[index, text] : reports)
        tallyTruth(fuzz::generateProgram(o.fuzz_seed, index, gen).expected,
                   reportedVerdicts(text), false, correct, total);
    return total ? 100.0 * static_cast<double>(correct) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace

int
runFuzz(const Options &o, Report &rep)
{
    Calibrator setups;
    setups.sample();
    for (int r = 0; r < kSetupReps; ++r) {
        fuzz::FuzzOptions warm;
        warm.budget = kWarmBudget;
        warm.fuzz_seed = o.fuzz_seed;
        warm.jobs = 1;
        const std::uint64_t t0 = processCpuNs();
        fuzz::runFuzz(warm);
        setups.add(nsToMs(processCpuNs() - t0));
    }
    setups.sample();

    std::string reference;
    std::map<std::uint64_t, std::string> reports; ///< first verdict per index
    SpanLog off(false);
    const Phase base = runPasses(o, off, rep, reference, reports);
    rep.fingerprint_key =
        "fuzz seed " + std::to_string(o.fuzz_seed) + " budget " +
        std::to_string(kBudget);
    rep.fingerprint = reference;
    rep.note("fuzz: seed " + std::to_string(o.fuzz_seed) + ", " +
             std::to_string(base.passes) + " pass(es) of " +
             std::to_string(kBudget) + " programs untraced");

    if (!o.trace) {
        EndToEnd e;
        e.units = static_cast<double>(base.judged);
        e.attempted = static_cast<double>(base.programs);
        e.cpu_s = nsToS(base.cpu_ns);
        e.peak_rss_mb = selfPeakRssMb();
        e.matched_pct = 100.0 *
                        (e.attempted - static_cast<double>(base.flagged)) /
                        e.attempted;
        e.accuracy_pct = accuracyPct(o, reports);
        reportEndToEnd(rep, e, setups, base.cal);
        return 0;
    }

    SpanLog log(true);
    obs::Collector collector;
    obs::setCollector(&collector);
    const Phase traced = runPasses(o, log, rep, reference, reports);
    obs::setCollector(nullptr);
    obs::MetricsShard counts;
    collector.drainInto(counts);
    rep.note("fuzz traced: " + std::to_string(traced.passes) +
             " pass(es)");

    const double units = static_cast<double>(traced.judged);
    reportAbsentLayers(rep, Layers::Fuzz);
    reportLayerCounts(rep, counts, units, false);
    const double f = traced.cal.factor();
    const std::vector<double> oracle = log.durationsMs("fuzz.oracle");
    rep.metric("fuzz.oracle_ms.p50", median(oracle) / f, "ms");
    const Tail ot = tailOf(oracle);
    rep.metric("fuzz.oracle_ms.tail", ot.value / f, "ms");
    rep.tail("fuzz.oracle_ms.tail", ot);
    rep.metric("fuzz.driver_ms",
               log.selfMsByName()["fuzz.runFuzz"] / (units * f), "ms");
    std::vector<double> cpu = traced.cal.scaled();
    std::sort(cpu.begin(), cpu.end(), std::greater<>());
    const double total = std::accumulate(cpu.begin(), cpu.end(), 0.0);
    const std::size_t top = std::max<std::size_t>(1, cpu.size() / 100);
    rep.metric("fuzz.top1pct_cpu_share",
               total > 0 ? 100.0 *
                               std::accumulate(cpu.begin(),
                                               cpu.begin() + top, 0.0) /
                               total
                         : 0.0,
               "%");
    const double passes = static_cast<double>(traced.passes);
    rep.metric("fuzz.programs",
               static_cast<double>(
                   counts.counter(obs::Counter::FuzzPrograms)) /
                   passes,
               "count");
    rep.metric("fuzz.flagged",
               static_cast<double>(
                   counts.counter(obs::Counter::FuzzFlagged)) /
                   passes,
               "count");
    const double traced_rate = perCpuSecond(traced);
    rep.metric("trace.overhead_pct",
               traced_rate > 0
                   ? 100.0 * (perCpuSecond(base) / traced_rate - 1.0)
                   : 0.0,
               "%");
    std::string err;
    if (!o.spans_out.empty() && !log.writeJsonl(o.spans_out, &err))
        rep.fail(err);
    return 0;
}

} // namespace perfbench
