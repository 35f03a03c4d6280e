/**
 * @file
 * The unified observability layer: metrics registry, worker-local
 * shards, and a process-wide collector for layers with no result
 * struct to thread through. With the span tracer (support/trace.h)
 * it backs the only two observability exports, `--metrics-out` and
 * `--trace-out`.
 *
 * Design contract (see docs/ARCHITECTURE.md "Observability"):
 *
 *  - **Registered once.** Every metric is a row in the X-macro
 *    tables below; the enum index is its identity and the
 *    dot-namespaced string its exported name. There is no dynamic
 *    registration, so exports always cover the full table in fixed
 *    order — a prerequisite for byte-comparing metrics files.
 *
 *  - **One home per number.** Counts live here and nowhere else: a
 *    verdict carries its counters as a shard
 *    (core::Classification::metrics), a detection run and a
 *    pipeline carry theirs (DetectionResult, PortendResult), and
 *    layers with no result struct bump the collector. Durations live
 *    in spans (support/trace.h) and nowhere else.
 *
 *  - **Deterministic by construction.** Counters merge by addition,
 *    gauges by max, histograms bucket-wise — all commutative and
 *    associative — so shards may be merged in any order (as workers
 *    finish) and `--metrics-out` bytes are still identical across
 *    `--jobs N` and across runs. That forces one hard rule: *no
 *    timing and no worker-count values in the registry.*
 *
 *  - **Zero-cost when off.** The two process-wide sinks, the
 *    collector and the tracer, are plain atomic pointers, null by
 *    default; every instrumentation site is one relaxed load and a
 *    branch. perfbench measures with the sinks null (`--trace 0`).
 */

#ifndef PORTEND_SUPPORT_OBSERVE_H
#define PORTEND_SUPPORT_OBSERVE_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace portend::obs {

// ---------------------------------------------------------------------------
// Metric tables. Rows are sorted by exported name; exports walk the
// table top to bottom, so this order IS the file order.
// ---------------------------------------------------------------------------

/** Monotone counters: merge = sum. */
#define PORTEND_OBS_COUNTERS(X)                                               \
    X(CampaignCacheHits, "campaign.cache_hits")                               \
    X(CampaignCacheMisses, "campaign.cache_misses")                           \
    X(CampaignUnits, "campaign.units")                                        \
    X(ClassifyClusters, "classify.clusters")                                  \
    X(ClassifyDistinctSchedules, "classify.distinct_schedules")               \
    X(ClassifyKWitnesses, "classify.k_witnesses")                             \
    X(ClassifyPaths, "classify.paths_explored")                               \
    X(ClassifyPreemptions, "classify.preemptions")                            \
    X(ClassifySchedules, "classify.schedules_explored")                       \
    X(ClassifySolverQueries, "classify.solver_queries")                       \
    X(ClassifyStatesCreated, "classify.states_created")                       \
    X(ClassifySteps, "classify.steps")                                        \
    X(ClassifySymBranches, "classify.sym_branches")                           \
    X(CorpusEntries, "corpus.entries")                                        \
    X(CorpusFailed, "corpus.failed")                                          \
    X(CorpusPassed, "corpus.passed")                                          \
    X(DetectClusters, "detect.clusters")                                      \
    X(DetectDynamicRaces, "detect.dynamic_races")                             \
    X(DetectHistoryEvictions, "detect.history_evictions")                     \
    X(DetectPagesUnshared, "detect.pages_unshared")                           \
    X(DetectRuns, "detect.runs")                                              \
    X(DetectSteps, "detect.steps")                                            \
    X(DetectValuesBoxed, "detect.values_boxed")                               \
    X(ExploreCandidates, "explore.candidates")                                \
    X(ExploreDistinct, "explore.distinct")                                    \
    X(ExploreRecorded, "explore.recorded")                                    \
    X(FuzzFlagged, "fuzz.flagged")                                            \
    X(FuzzPrograms, "fuzz.programs")                                          \
    X(InterpCyclesDetected, "interp.cycles_detected")                         \
    X(InterpPreemptions, "interp.preemptions")                                \
    X(InterpRuns, "interp.runs")                                              \
    X(InterpSteps, "interp.steps")                                            \
    X(InterpStepsSkipped, "interp.steps_skipped")                             \
    X(InterpSymBranches, "interp.sym_branches")                               \
    X(InterpTimeouts, "interp.timeouts")                                      \
    X(InterpValuesBoxed, "interp.values_boxed")                               \
    X(LadderBuildSteps, "ladder.build_steps")                                 \
    X(LadderCoveredSteps, "ladder.covered_steps")                             \
    X(LadderForks, "ladder.forks")                                            \
    X(LadderRungs, "ladder.rungs")                                            \
    X(LadderStepsReused, "ladder.steps_reused")                               \
    X(LadderTailSteps, "ladder.tail_steps")                                   \
    X(PipelineWorkloads, "pipeline.workloads")                                \
    X(ServeRequests, "serve.requests")                                        \
    X(ServeSubmissions, "serve.submissions")                                  \
    X(ServeUnitsCached, "serve.units_cached")                                 \
    X(ServeUnitsCompleted, "serve.units_completed")                           \
    X(ServeUnitsDispatched, "serve.units_dispatched")                         \
    X(ServeWorkerDeaths, "serve.worker_deaths")                               \
    X(ServeWorkerRestarts, "serve.worker_restarts")                           \
    X(SolverQueries, "sym.solver_queries")                                    \
    X(SymPathForks, "sym.path_forks")                                         \
    X(VerdictKWitnessHarmless, "verdicts.k_witness_harmless")                 \
    X(VerdictOutputDiffers, "verdicts.output_differs")                        \
    X(VerdictSingleOrdering, "verdicts.single_ordering")                      \
    X(VerdictSpecViolated, "verdicts.spec_violated")                          \
    X(VerdictUnclassified, "verdicts.unclassified")

/** Level gauges: merge = max (a shard reports the largest level it
 *  saw, so merge order cannot matter). */
#define PORTEND_OBS_GAUGES(X)                                                 \
    X(DecodedSites, "interp.decoded_sites")                                   \
    X(FuzzCorpusSize, "fuzz.corpus_size")

/** Log2-bucketed histograms: merge = bucket-wise sum. */
#define PORTEND_OBS_HISTS(X)                                                  \
    X(ClusterDistinct, "classify.cluster_distinct_schedules")                 \
    X(ClusterSteps, "classify.cluster_steps")                                 \
    X(InterpRunSteps, "interp.run_steps")

enum class Counter : std::size_t {
#define X(ident, name) ident,
    PORTEND_OBS_COUNTERS(X)
#undef X
};

enum class Gauge : std::size_t {
#define X(ident, name) ident,
    PORTEND_OBS_GAUGES(X)
#undef X
};

enum class Hist : std::size_t {
#define X(ident, name) ident,
    PORTEND_OBS_HISTS(X)
#undef X
};

#define X(ident, name) +1
inline constexpr std::size_t kNumCounters = PORTEND_OBS_COUNTERS(X);
inline constexpr std::size_t kNumGauges = PORTEND_OBS_GAUGES(X);
inline constexpr std::size_t kNumHists = PORTEND_OBS_HISTS(X);
#undef X

/** Histogram bucket b counts samples with bit_width(value) == b,
 *  i.e. bucket 0 is {0}, bucket b>0 is [2^(b-1), 2^b). */
inline constexpr std::size_t kHistBuckets = 64;

const char *counterName(Counter c);
const char *gaugeName(Gauge g);
const char *histName(Hist h);

// ---------------------------------------------------------------------------
// MetricsShard: one verdict's, worker's or pipeline stage's plain,
// unsynchronized accumulation. Every merge commutes, so owners fold
// shards in whatever order they finish.
// ---------------------------------------------------------------------------

class MetricsShard
{
  public:
    void add(Counter c, std::uint64_t delta)
    {
        counters_[static_cast<std::size_t>(c)] += delta;
    }

    /** Gauge semantics: keep the largest level reported. */
    void level(Gauge g, std::uint64_t value)
    {
        auto &slot = gauges_[static_cast<std::size_t>(g)];
        if (value > slot)
            slot = value;
    }

    void observe(Hist h, std::uint64_t sample);

    /** Raw histogram fold — used when draining pre-bucketed data
     *  (Collector::drainInto) rather than observing fresh samples. */
    void addHistRaw(Hist h, std::size_t bucket, std::uint64_t n)
    {
        hist_buckets_[static_cast<std::size_t>(h)][bucket] += n;
    }
    void addHistMeta(Hist h, std::uint64_t count, std::uint64_t sum)
    {
        hist_count_[static_cast<std::size_t>(h)] += count;
        hist_sum_[static_cast<std::size_t>(h)] += sum;
    }

    /** Fold `other` into this shard (commutative + associative). */
    void merge(const MetricsShard &other);

    std::uint64_t counter(Counter c) const
    {
        return counters_[static_cast<std::size_t>(c)];
    }
    std::uint64_t gauge(Gauge g) const
    {
        return gauges_[static_cast<std::size_t>(g)];
    }
    std::uint64_t histCount(Hist h) const
    {
        return hist_count_[static_cast<std::size_t>(h)];
    }
    std::uint64_t histSum(Hist h) const
    {
        return hist_sum_[static_cast<std::size_t>(h)];
    }
    std::uint64_t histBucket(Hist h, std::size_t b) const
    {
        return hist_buckets_[static_cast<std::size_t>(h)][b];
    }

  private:
    std::array<std::uint64_t, kNumCounters> counters_{};
    std::array<std::uint64_t, kNumGauges> gauges_{};
    std::array<std::array<std::uint64_t, kHistBuckets>, kNumHists>
        hist_buckets_{};
    std::array<std::uint64_t, kNumHists> hist_count_{};
    std::array<std::uint64_t, kNumHists> hist_sum_{};
};

/**
 * Render a shard as the `portend-metrics-v1` JSON document: every
 * registered metric, table order, no timing and no worker-count
 * fields — the bytes are the determinism contract.
 */
std::string metricsJson(const MetricsShard &shard);

// ---------------------------------------------------------------------------
// Collector: the process-wide sink for layers that have no result
// struct to carry a shard through (the interpreter most of all).
// Counters are relaxed atomics — sums are commutative, so the drain
// is deterministic even though the bump order is not.
// ---------------------------------------------------------------------------

class Collector
{
  public:
    void add(Counter c, std::uint64_t delta)
    {
        counters_[static_cast<std::size_t>(c)].fetch_add(
            delta, std::memory_order_relaxed);
    }

    void level(Gauge g, std::uint64_t value)
    {
        auto &slot = gauges_[static_cast<std::size_t>(g)];
        std::uint64_t seen = slot.load(std::memory_order_relaxed);
        while (value > seen &&
               !slot.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed))
        {
        }
    }

    void observe(Hist h, std::uint64_t sample);

    /** Fold everything collected so far into `out` (non-destructive). */
    void drainInto(MetricsShard &out) const;

  private:
    std::array<std::atomic<std::uint64_t>, kNumCounters> counters_{};
    std::array<std::atomic<std::uint64_t>, kNumGauges> gauges_{};
    std::array<std::array<std::atomic<std::uint64_t>, kHistBuckets>, kNumHists>
        hist_buckets_{};
    std::array<std::atomic<std::uint64_t>, kNumHists> hist_count_{};
    std::array<std::atomic<std::uint64_t>, kNumHists> hist_sum_{};
};

/** The installed collector, or nullptr (the default: layer off). */
Collector *collector();

/** Install (or clear, with nullptr) the process-wide collector.
 *  Install before spawning workers; not synchronized with bumps. */
void setCollector(Collector *c);

} // namespace portend::obs

#endif // PORTEND_SUPPORT_OBSERVE_H
