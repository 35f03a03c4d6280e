#include "measure.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include <sys/resource.h>

#include "portend/render.h"

namespace perfbench {

using portend::obs::Counter;
using portend::obs::Hist;

std::uint64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t
wallNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() < 3)
        return t;
    std::sort(v.begin(), v.end());
    const double ladder[] = {99.99, 99.95, 99.9, 99.5, 99.0,
                             98.0,  95.0,  90.0, 75.0, 50.0};
    const std::size_t n = v.size();
    std::size_t rank = n / 2;
    t.percentile = 50.0;
    for (double p : ladder) {
        // Nearest rank: the smallest sample with at least p% of the
        // samples at or below it.
        const auto r = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        const std::size_t idx = r == 0 ? 0 : r - 1;
        if (n - 1 - idx >= 10) {
            rank = idx;
            t.percentile = p;
            break;
        }
    }
    rank = std::clamp<std::size_t>(rank, 1, n - 2);
    t.value = v[rank];
    t.beyond = n - 1 - rank;
    t.below = v[rank - 1];
    t.above = v[rank + 1];
    return t;
}

namespace {

/** Kernel CPU time on a quiet host: the figures read as on a host
 *  where the kernel takes this long, about the fastest seen on the
 *  4-vCPU VM this was written on (Release build). */
constexpr double kNominalKernelNs = 0.31e6;

/** Request time between kernel runs. Slow episodes of the host as
 *  short as a few units are then bracketed by their own kernel runs;
 *  the kernel adds about a tenth to the run's CPU, which the
 *  workloads exclude from their totals. */
constexpr double kBracketMs = 5.0;

/** The kernel's program, built before main so no kernel run pays
 *  for it. */
const std::vector<std::uint32_t> kKernelProgram = [] {
    std::vector<std::uint32_t> code(16384);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t &op : code) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        op = static_cast<std::uint32_t>(x);
    }
    return code;
}();

/**
 * The calibration kernel: a switch-dispatch interpreter running a
 * fixed program of 16,384 random instructions over 64 registers, so
 * its branches are as hard to predict as the pipeline's own
 * interpreter and tree walks. Over a minute of host speed changes,
 * triage's time per block of 20 passes followed this kernel's time
 * with a slope of 1.05 (correlation 0.76); a kernel of ordered-map
 * churn, string hashing and a 64-instruction loop followed with a
 * slope of 0.51, under-correcting slow hosts by about a sixth.
 * Returns a value that depends on all the work, so none is optimized
 * away.
 */
std::uint64_t
calibrationKernel()
{
    std::uint64_t reg[64];
    for (std::size_t i = 0; i < 64; ++i)
        reg[i] = i + 1;
    for (int round = 0; round < 2; ++round) {
        for (std::uint32_t op : kKernelProgram) {
            std::uint64_t &a = reg[(op >> 8) & 63];
            const std::uint64_t b = reg[(op >> 14) & 63];
            switch (op & 15) {
            case 0: a += b; break;
            case 1: a ^= b >> 3; break;
            case 2: a = a * 31 + b; break;
            case 3: if (a & 1) a -= b; else a += 7; break;
            case 4: a = (a << 1) | (b & 1); break;
            case 5: a ^= 0x5bd1e995; break;
            case 6: a = b - a; break;
            case 7: a |= b & 0xff; break;
            case 8: a = (a >> 2) + b; break;
            case 9: if (b & 2) a ^= b; break;
            case 10: a += a >> 5; break;
            case 11: a *= 3; break;
            case 12: a -= 11; break;
            case 13: a ^= a << 7; break;
            case 14: if (a > b) a = b; break;
            default: a = ~a; break;
            }
        }
    }
    std::uint64_t acc = 0;
    for (std::uint64_t v : reg)
        acc += v;
    return acc;
}

} // namespace

void
Calibrator::add(double ms)
{
    pending_.push_back(ms);
    pending_ms_ += ms;
    if (pending_ms_ >= kBracketMs)
        sample();
}

void
Calibrator::sample()
{
    const std::uint64_t w0 = wallNs();
    const std::uint64_t c0 = processCpuNs();
    sink_ += calibrationKernel();
    const std::uint64_t cpu = processCpuNs() - c0;
    spent_cpu_ += cpu;
    spent_wall_ += wallNs() - w0;
    samples_ += 1;
    const double now = static_cast<double>(cpu) / kNominalKernelNs;
    const double slowdown = last_ > 0.0 ? (last_ + now) / 2.0 : now;
    for (double raw : pending_) {
        scaled_.push_back(raw / slowdown);
        raw_total_ += raw;
        scaled_total_ += raw / slowdown;
    }
    pending_.clear();
    pending_ms_ = 0.0;
    last_ = now;
}

double
Calibrator::factor() const
{
    return scaled_total_ > 0.0 ? raw_total_ / scaled_total_ : 1.0;
}

int
SpanLog::begin(const char *name, std::int64_t unit)
{
    Span s;
    s.name = name;
    s.unit = unit;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = wallNs();
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanLog::end(int id)
{
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end = wallNs();
    open_.pop_back();
    if (s.parent >= 0)
        spans_[static_cast<std::size_t>(s.parent)].child_ns +=
            s.end - s.start;
}

std::map<std::string, double>
SpanLog::selfMsByName() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += nsToMs(s.end - s.start - s.child_ns);
    return out;
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(nsToMs(s.end - s.start));
    return out;
}

bool
SpanLog::writeJsonl(const std::string &path, std::string *error) const
{
    std::ofstream f(path, std::ios::binary);
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    char buf[256];
    for (std::size_t i = 0; i < spans_.size() && f; ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %zu, \"name\": \"%s\", \"start_us\": "
                      "%.3f, \"dur_us\": %.3f, \"self_us\": %.3f, "
                      "\"parent\": %d, \"unit\": %lld}\n",
                      i, s.name, static_cast<double>(s.start - t0) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3,
                      static_cast<double>(s.end - s.start - s.child_ns) /
                          1e3,
                      s.parent, static_cast<long long>(s.unit));
        f << buf;
    }
    if (!f) {
        *error = "cannot write spans to " + path;
        return false;
    }
    return true;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit,
                        true});
}

void
Report::notMeasured(const std::string &name, const std::string &unit)
{
    metrics_.push_back({name, 0.0, unit, false});
}

void
Report::tail(const std::string &name, const Tail &t)
{
    tails_[name] = t;
}

void
Report::fail(const std::string &why)
{
    correct = false;
    failures_.push_back(why);
}

namespace {

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    out += portend::core::jsonEscape(s);
    out += '"';
    return out;
}

} // namespace

void
Report::print() const
{
    for (const std::string &n : notes_)
        std::printf("%s\n", n.c_str());
    std::vector<std::string> skipped;
    for (const Metric &m : metrics_) {
        if (!m.measured) {
            skipped.push_back(m.name);
            continue;
        }
        std::printf("  %-34s %16s %s", m.name.c_str(),
                    num(m.value).c_str(), m.unit.c_str());
        auto it = tails_.find(m.name);
        if (it != tails_.end()) {
            const Tail &t = it->second;
            std::printf("  (p%s of %zu samples, %zu beyond; neighbours "
                        "%s / %s, ratio %s)",
                        num(t.percentile).c_str(), t.samples, t.beyond,
                        num(t.below).c_str(), num(t.above).c_str(),
                        num(t.gapRatio()).c_str());
        }
        std::printf("\n");
    }
    if (!skipped.empty()) {
        std::printf("  not measured on this workload (reported as 0):");
        for (const std::string &s : skipped)
            std::printf(" %s", s.c_str());
        std::printf("\n");
    }
    std::printf("fingerprint: %s (%s)\n", fingerprint.c_str(),
                fingerprint_key.c_str());
    for (const std::string &f : failures_)
        std::printf("FAILED CHECK: %s\n", f.c_str());

    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
               num(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
    }
    out += "}, \"detail\": {\"fingerprint\": " + quoted(fingerprint) +
           ", \"fingerprint_key\": " + quoted(fingerprint_key) +
           ", \"tails\": {";
    bool first = true;
    for (const auto &[name, t] : tails_) {
        out += (first ? "" : ", ") + quoted(name) +
               ": {\"percentile\": " + num(t.percentile) +
               ", \"samples\": " + std::to_string(t.samples) +
               ", \"beyond\": " + std::to_string(t.beyond) +
               ", \"below\": " + num(t.below) + ", \"above\": " +
               num(t.above) + ", \"ratio\": " + num(t.gapRatio()) + "}";
        first = false;
    }
    out += "}, \"not_measured\": [";
    for (std::size_t i = 0; i < skipped.size(); ++i)
        out += (i ? ", " : "") + quoted(skipped[i]);
    out += "], \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i)
        out += (i ? ", " : "") + quoted(failures_[i]);
    out += "]}}";
    std::printf("%s\n", out.c_str());
}

void
reportEndToEnd(Report &rep, const EndToEnd &e, const Calibrator &setups,
               const Calibrator &requests)
{
    const double f = requests.factor();
    const double per_cpu = e.cpu_s > 0 ? e.units / e.cpu_s : 0.0;
    const Tail t = tailOf(requests.scaled());
    rep.note("calibration: host slowdown " + num(f) + " over the requests, " +
             num(setups.factor()) + " over the set-ups (" +
             std::to_string(requests.samples() + setups.samples()) +
             " kernel runs); raw units_per_cpu_s " + num(per_cpu));
    rep.metric("setup_s", median(setups.scaled()) / 1e3, "s");
    rep.metric("units_per_cpu_s", per_cpu * f, "1/s");
    rep.metric("request_ms.p50", median(requests.scaled()), "ms");
    rep.metric("request_ms.tail", t.value, "ms");
    rep.tail("request_ms.tail", t);
    rep.metric("peak_rss_mb", e.peak_rss_mb, "MB");
    rep.metric("completed_pct",
               e.attempted > 0 ? 100.0 * e.units / e.attempted : 0.0, "%");
    rep.metric("verdicts_matched_pct", e.matched_pct, "%");
    rep.metric("accuracy_pct", e.accuracy_pct, "%");
}

void
reportLayerCounts(Report &rep, const portend::obs::MetricsShard &m,
                  double units, bool pipeline_counts)
{
    const auto per = [&](Counter c) {
        return units > 0 ? static_cast<double>(m.counter(c)) / units
                         : 0.0;
    };
    const auto pipeline = [&](const char *name, Counter c) {
        if (pipeline_counts)
            rep.metric(name, per(c), "count");
        else
            rep.notMeasured(name, "count");
    };
    pipeline("detect.steps", Counter::DetectSteps);
    pipeline("detect.dynamic_races", Counter::DetectDynamicRaces);
    pipeline("detect.clusters", Counter::DetectClusters);
    pipeline("ladder.rungs", Counter::LadderRungs);
    pipeline("ladder.covered_steps", Counter::LadderCoveredSteps);
    pipeline("classify.steps", Counter::ClassifySteps);
    pipeline("classify.paths_explored", Counter::ClassifyPaths);
    pipeline("classify.schedules_explored", Counter::ClassifySchedules);
    rep.metric("ladder.forks", per(Counter::LadderForks), "count");
    rep.metric("explore.candidates", per(Counter::ExploreCandidates),
               "count");
    rep.metric("explore.distinct", per(Counter::ExploreDistinct), "count");
    const double cand =
        static_cast<double>(m.counter(Counter::ExploreCandidates));
    rep.metric("explore.distinct_ratio",
               cand > 0 ? static_cast<double>(
                              m.counter(Counter::ExploreDistinct)) /
                              cand
                        : 0.0,
               "ratio");
    rep.metric("sym.solver_queries", per(Counter::SolverQueries), "count");
    rep.metric("sym.path_forks", per(Counter::SymPathForks), "count");
    rep.metric("interp.runs", per(Counter::InterpRuns), "count");
    rep.metric("interp.steps", per(Counter::InterpSteps), "count");
    // Runs of at least 2^17 steps: histogram buckets hold samples
    // with bit_width(steps) == b, so 2^17 starts bucket 18.
    std::uint64_t long_runs = 0;
    for (std::size_t b = std::bit_width(std::uint64_t{1} << 17);
         b < portend::obs::kHistBuckets; ++b)
        long_runs += m.histBucket(Hist::InterpRunSteps, b);
    rep.metric("interp.long_runs",
               units > 0 ? static_cast<double>(long_runs) / units : 0.0,
               "count");
}

void
reportAbsentLayers(Report &rep, Layers present)
{
    struct Name
    {
        Layers layer;
        const char *name;
        const char *unit;
    };
    static const Name kLayerSpecific[] = {
        {Layers::Triage, "race.detect_ms", "ms"},
        {Layers::Triage, "rt.static_ms", "ms"},
        {Layers::Triage, "replay.ladder_ms", "ms"},
        {Layers::Triage, "portend.cluster_ms.p50", "ms"},
        {Layers::Triage, "portend.cluster_ms.tail", "ms"},
        {Layers::Triage, "portend.classify_ms", "ms"},
        {Layers::Triage, "portend.render_ms", "ms"},
        {Layers::Fuzz, "fuzz.oracle_ms.p50", "ms"},
        {Layers::Fuzz, "fuzz.oracle_ms.tail", "ms"},
        {Layers::Fuzz, "fuzz.driver_ms", "ms"},
        {Layers::Fuzz, "fuzz.top1pct_cpu_share", "%"},
        {Layers::Fuzz, "fuzz.programs", "count"},
        {Layers::Fuzz, "fuzz.flagged", "count"},
        {Layers::Serve, "serve.units_per_s", "1/s"},
        {Layers::Serve, "serve.submit_ms.cold.p50", "ms"},
        {Layers::Serve, "serve.submit_ms.repeat.p50", "ms"},
        {Layers::Serve, "serve.worker_utilization", "%"},
        {Layers::Serve, "serve.units_dispatched", "count"},
        {Layers::Serve, "serve.units_completed", "count"},
        {Layers::Serve, "serve.units_replayed", "count"},
        {Layers::Serve, "serve.redispatched", "count"},
        {Layers::Serve, "serve.worker_deaths", "count"},
        {Layers::Serve, "serve.overhead_cpu_ms", "ms"},
        {Layers::Serve, "campaign.journal_records", "count"},
        {Layers::Serve, "campaign.cache_entries", "count"},
    };
    for (const Name &n : kLayerSpecific)
        if (n.layer != present)
            rep.notMeasured(n.name, n.unit);
}

double
selfPeakRssMb()
{
    // VmHWM is this program image's own peak. ru_maxrss would also
    // carry the launcher's peak from before execve (a Python parent
    // adds ~14 MB, twice the triage workload's own).
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
tallyTruth(const std::vector<portend::workloads::ExpectedRace> &truth,
           const std::vector<Verdict> &reported, bool predicates,
           std::uint64_t &correct, std::uint64_t &total)
{
    using portend::core::ViolationKind;
    std::multimap<std::string, const portend::workloads::ExpectedRace *>
        pool;
    for (const portend::workloads::ExpectedRace &e : truth)
        pool.insert({e.cell, &e});
    const std::string semantic =
        portend::core::violationKindName(ViolationKind::SemanticAssert);
    for (const Verdict &v : reported) {
        total += 1;
        auto it = pool.find(v.cell);
        if (it == pool.end())
            continue;
        if (v.cls == portend::core::raceClassName(it->second->truth) ||
            (predicates && v.violation == semantic))
            correct += 1;
        pool.erase(it);
    }
    total += pool.size();
}

std::string
hex64(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
