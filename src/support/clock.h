/**
 * @file
 * The repo's single timing source.
 *
 * Every duration in the codebase — stopwatches, span lengths, bench
 * trials, queue delays — must come from steadyNanos(), which is
 * monotonic and immune to NTP slews and clock steps. Wall-clock time
 * exists only for *timestamps* shown to humans (trace-file metadata,
 * log prefixes) and must never be subtracted to form a duration.
 *
 * This split is a determinism guardrail as much as a correctness
 * one: durations live only in spans and stopwatches, never in the
 * metrics registry, so keeping them behind one named helper makes
 * it greppable that nothing else sneaks a clock read into exported
 * (byte-compared) output.
 */

#ifndef PORTEND_SUPPORT_CLOCK_H
#define PORTEND_SUPPORT_CLOCK_H

#include <chrono>
#include <cstdint>

namespace portend {

/** Monotonic nanoseconds since an arbitrary epoch (process-local).
 *  The only sanctioned source for durations. */
inline std::uint64_t
steadyNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds between two steadyNanos() readings. */
inline double
steadySeconds(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** Wall-clock microseconds since the Unix epoch. Timestamps only:
 *  never subtract two readings to form a duration. */
inline std::uint64_t
wallUnixMicros()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

} // namespace portend

#endif // PORTEND_SUPPORT_CLOCK_H
