/**
 * @file
 * Measurement primitives shared by the benchmark's workloads: clocks,
 * sample summaries (median, quartiles, a tail rank with ten samples
 * beyond it), benchmark-side spans, and the run report that becomes
 * the result line every run ends with.
 */

#ifndef PORTEND_PERFBENCH_MEASURE_H
#define PORTEND_PERFBENCH_MEASURE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/observe.h"
#include "workloads/workload.h"

namespace perfbench {

/** CPU time of the whole process (every thread), in nanoseconds. */
std::uint64_t processCpuNs();

/** Monotonic wall clock, in nanoseconds. */
std::uint64_t wallNs();

/** Nanoseconds to milliseconds / seconds. */
inline double nsToMs(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double nsToS(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * The tail of a sample set: the highest percentile of a fixed ladder
 * (50 .. 99.99) that still has at least ten samples beyond its
 * nearest-rank position, with the samples either side of that rank,
 * so a rank sitting on a gap between clusters shows as a large ratio.
 */
struct Tail
{
    double value = 0.0;      ///< sample at the tail rank
    double percentile = 0.0; ///< chosen ladder percentile
    std::size_t samples = 0; ///< sample count
    std::size_t beyond = 0;  ///< samples above the rank
    double below = 0.0;      ///< sample just below the rank
    double above = 0.0;      ///< sample just above the rank

    /** above / below: near 1 inside a cluster, large on a gap. */
    double gapRatio() const { return below > 0.0 ? above / below : 0.0; }
};

Tail tailOf(std::vector<double> v);

/**
 * Benchmark-side spans: name, start, end, parent span and unit id,
 * kept in memory and written out at exit. Disabled logs record
 * nothing, so untraced runs pay one branch per span.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name = "";
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        int parent = -1;
        std::int64_t unit = -1;
        std::uint64_t child_ns = 0; ///< time covered by direct children
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; returns its id. */
    int begin(const char *name, std::int64_t unit);

    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    /** Self time (duration minus direct children) summed per name, ms. */
    std::map<std::string, double> selfMsByName() const;

    /** Durations of every span called @p name, ms. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string &path, std::string *error) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span (no-op when the log is disabled). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::int64_t unit)
        : log_(log), id_(log.enabled() ? log.begin(name, unit) : -1)
    {}
    ~ScopedSpan()
    {
        if (id_ >= 0)
            log_.end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

/**
 * Host-speed calibration. On a shared VM the same deterministic work
 * reads up to 1.8x slower from one moment to the next, on the CPU
 * clock too, because other tenants share the physical cores; slow
 * episodes last from tens of milliseconds to minutes. A fixed kernel
 * that slows down as the pipeline does (an interpreter over a large
 * random program; see calibrationKernel() in measure.cc) is
 * timed by process CPU between requests, once per few milliseconds
 * of request time; its time over its nominal time on a quiet host is
 * the host's slowdown at that moment. Each request sample is divided
 * by the mean slowdown of the two kernel runs around it, so the
 * figures read as on the quiet host. The kernel lives here, not in
 * src/, so it is the same code on every commit.
 */
class Calibrator
{
  public:
    /** Record one request's time in ms; runs the kernel once the
     *  requests since its last run add up to a few milliseconds. */
    void add(double ms);

    /** Run the kernel, and scale the requests added since its last
     *  run by the mean slowdown of the two runs. Call it once before
     *  the first request and once after the last. */
    void sample();

    /** The scaled requests, in the order added (call sample() after
     *  the last add()). */
    const std::vector<double> &scaled() const { return scaled_; }

    /** The host's slowdown over the scaled requests, weighted by
     *  their time: raw total / scaled total (1 = the quiet host). */
    double factor() const;

    std::size_t samples() const { return samples_; }

    /** CPU and wall time the kernel itself consumed; the workloads
     *  subtract them from their timed totals. */
    std::uint64_t spentCpuNs() const { return spent_cpu_; }
    std::uint64_t spentWallNs() const { return spent_wall_; }

  private:
    std::vector<double> pending_;
    double pending_ms_ = 0.0;
    std::vector<double> scaled_;
    double raw_total_ = 0.0;
    double scaled_total_ = 0.0;
    double last_ = 0.0; ///< slowdown the previous kernel run measured
    std::size_t samples_ = 0;
    std::uint64_t spent_cpu_ = 0;
    std::uint64_t spent_wall_ = 0;
    std::uint64_t sink_ = 0;
};

/** Parsed command line (see main.cc for the flags). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t fuzz_seed = 42;
    std::string golden_dir;
    std::string spans_out;
};

/**
 * One run's outcome: operation counts, metrics in print order, the
 * tail details behind every `.tail` metric, and the work fingerprint.
 */
class Report
{
  public:
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Deterministic work fingerprint and the inputs it depends on. */
    std::string fingerprint;
    std::string fingerprint_key;

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** A metric of a layer this workload never calls: reported as 0
     *  and listed as not measured. */
    void notMeasured(const std::string &name, const std::string &unit);

    void tail(const std::string &name, const Tail &t);

    /** A failed check: marks the run incorrect and says why. */
    void fail(const std::string &why);

    /** Free-form line printed with the report. */
    void note(const std::string &line) { notes_.push_back(line); }

    /** Human-readable lines, then the JSON result as the last line. */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        bool measured = true;
    };
    std::vector<Metric> metrics_;
    std::map<std::string, Tail> tails_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
};

/** End-to-end measurements of one untraced timed region. All times
 *  are CPU time of every process that does the work. */
struct EndToEnd
{
    double units = 0.0;     ///< units that returned a verdict
    double attempted = 0.0; ///< units attempted
    double cpu_s = 0.0;     ///< the timed region, raw
    double peak_rss_mb = 0.0;
    double matched_pct = 0.0;
    double accuracy_pct = 0.0;
};

/** Every end-to-end metric: set-up and request times from their
 *  calibrators (both in ms), and the rate multiplied by the requests'
 *  slowdown. The raw rate goes into a note. */
void reportEndToEnd(Report &rep, const EndToEnd &e,
                    const Calibrator &setups, const Calibrator &requests);

/**
 * Per-unit means of the registry counters the per-layer table names,
 * from pipeline shards merged with the collector. Without
 * @p pipeline_counts (fuzz drops its pipeline shards) the detect,
 * ladder-rung and classify counters are reported as not measured.
 */
void reportLayerCounts(Report &rep, const portend::obs::MetricsShard &m,
                       double units, bool pipeline_counts);

/** The workload whose layer-specific per-layer metrics are measured. */
enum class Layers { Triage, Fuzz, Serve };

/** Report the layer-specific metrics of the other workloads as not
 *  measured, so every traced run carries every per-layer name. */
void reportAbsentLayers(Report &rep, Layers present);

/** Peak resident set of this process since it was exec'd, MB. */
double selfPeakRssMb();

/** One reported race as its verdict names it. */
struct Verdict
{
    std::string cell;
    std::string cls;       ///< raceClassName spelling
    std::string violation; ///< violationKindName spelling ("" = none)
};

/**
 * Accuracy against ground truth: every reported race is matched to
 * an expected race on the same cell and counts as correct when its
 * class equals the truth; expected races never reported count as
 * misses. The ground truth is stated without semantic predicates, but
 * `classify` and campaigns install the workload's own (the fmm
 * timestamp check), and a race that violates an installed predicate
 * is spec-violating under that specification, so such a verdict
 * counts as correct when @p predicates is set.
 */
void tallyTruth(const std::vector<portend::workloads::ExpectedRace> &truth,
                const std::vector<Verdict> &reported, bool predicates,
                std::uint64_t &correct, std::uint64_t &total);

/** Hex digest of a 64-bit hash. */
std::string hex64(std::uint64_t h);

int runTriage(const Options &o, Report &rep);
int runFuzz(const Options &o, Report &rep);
int runServe(const Options &o, Report &rep);

} // namespace perfbench

#endif // PORTEND_PERFBENCH_MEASURE_H
