#include "support/observe.h"

#include <bit>
#include <cstdio>

namespace portend::obs {

namespace {

const char *const kCounterNames[] = {
#define X(ident, name) name,
    PORTEND_OBS_COUNTERS(X)
#undef X
};

const char *const kGaugeNames[] = {
#define X(ident, name) name,
    PORTEND_OBS_GAUGES(X)
#undef X
};

const char *const kHistNames[] = {
#define X(ident, name) name,
    PORTEND_OBS_HISTS(X)
#undef X
};

/** Bucket index: bit_width(sample), so 0 -> 0 and [2^(b-1), 2^b)
 *  -> b. Always < kHistBuckets for 64-bit samples. */
std::size_t
bucketOf(std::uint64_t sample)
{
    return static_cast<std::size_t>(std::bit_width(sample));
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

std::atomic<Collector *> g_collector{nullptr};

} // namespace

const char *
counterName(Counter c)
{
    return kCounterNames[static_cast<std::size_t>(c)];
}

const char *
gaugeName(Gauge g)
{
    return kGaugeNames[static_cast<std::size_t>(g)];
}

const char *
histName(Hist h)
{
    return kHistNames[static_cast<std::size_t>(h)];
}

void
MetricsShard::observe(Hist h, std::uint64_t sample)
{
    const auto i = static_cast<std::size_t>(h);
    hist_buckets_[i][bucketOf(sample)] += 1;
    hist_count_[i] += 1;
    hist_sum_[i] += sample;
}

void
MetricsShard::merge(const MetricsShard &other)
{
    for (std::size_t i = 0; i < kNumCounters; ++i)
        counters_[i] += other.counters_[i];
    for (std::size_t i = 0; i < kNumGauges; ++i)
        if (other.gauges_[i] > gauges_[i])
            gauges_[i] = other.gauges_[i];
    for (std::size_t i = 0; i < kNumHists; ++i)
    {
        for (std::size_t b = 0; b < kHistBuckets; ++b)
            hist_buckets_[i][b] += other.hist_buckets_[i][b];
        hist_count_[i] += other.hist_count_[i];
        hist_sum_[i] += other.hist_sum_[i];
    }
}

std::string
metricsJson(const MetricsShard &shard)
{
    std::string out;
    out.reserve(2048);
    out += "{\n  \"schema\": \"portend-metrics-v1\",\n  \"counters\": {\n";
    for (std::size_t i = 0; i < kNumCounters; ++i)
    {
        out += "    \"";
        out += kCounterNames[i];
        out += "\": ";
        appendU64(out, shard.counter(static_cast<Counter>(i)));
        out += i + 1 < kNumCounters ? ",\n" : "\n";
    }
    out += "  },\n  \"gauges\": {\n";
    for (std::size_t i = 0; i < kNumGauges; ++i)
    {
        out += "    \"";
        out += kGaugeNames[i];
        out += "\": ";
        appendU64(out, shard.gauge(static_cast<Gauge>(i)));
        out += i + 1 < kNumGauges ? ",\n" : "\n";
    }
    out += "  },\n  \"histograms\": {\n";
    for (std::size_t i = 0; i < kNumHists; ++i)
    {
        const auto h = static_cast<Hist>(i);
        out += "    \"";
        out += kHistNames[i];
        out += "\": {\"count\": ";
        appendU64(out, shard.histCount(h));
        out += ", \"sum\": ";
        appendU64(out, shard.histSum(h));
        out += ", \"buckets\": [";
        // Trailing zero buckets are trimmed; the cut point is a pure
        // function of the (deterministic) counts, so the bytes stay
        // comparable.
        std::size_t top = kHistBuckets;
        while (top > 0 && shard.histBucket(h, top - 1) == 0)
            --top;
        for (std::size_t b = 0; b < top; ++b)
        {
            if (b)
                out += ", ";
            appendU64(out, shard.histBucket(h, b));
        }
        out += "]}";
        out += i + 1 < kNumHists ? ",\n" : "\n";
    }
    out += "  }\n}\n";
    return out;
}

void
Collector::observe(Hist h, std::uint64_t sample)
{
    const auto i = static_cast<std::size_t>(h);
    hist_buckets_[i][bucketOf(sample)].fetch_add(1,
                                                 std::memory_order_relaxed);
    hist_count_[i].fetch_add(1, std::memory_order_relaxed);
    hist_sum_[i].fetch_add(sample, std::memory_order_relaxed);
}

void
Collector::drainInto(MetricsShard &out) const
{
    for (std::size_t i = 0; i < kNumCounters; ++i)
        out.add(static_cast<Counter>(i),
                counters_[i].load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < kNumGauges; ++i)
        out.level(static_cast<Gauge>(i),
                  gauges_[i].load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < kNumHists; ++i)
    {
        const auto h = static_cast<Hist>(i);
        for (std::size_t b = 0; b < kHistBuckets; ++b)
        {
            const std::uint64_t n =
                hist_buckets_[i][b].load(std::memory_order_relaxed);
            if (n)
                out.addHistRaw(h, b, n);
        }
        out.addHistMeta(h, hist_count_[i].load(std::memory_order_relaxed),
                        hist_sum_[i].load(std::memory_order_relaxed));
    }
}

Collector *
collector()
{
    return g_collector.load(std::memory_order_relaxed);
}

void
setCollector(Collector *c)
{
    g_collector.store(c, std::memory_order_release);
}

} // namespace portend::obs
