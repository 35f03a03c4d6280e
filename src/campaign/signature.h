/**
 * @file
 * Deterministic campaign signatures.
 *
 * A campaign caches verdicts by content, so the cache key must name
 * everything a verdict is a function of — and nothing it is not. The
 * key has three components:
 *
 *  - the program fingerprint (rt::programFingerprint, the decode
 *    cache's key from the interpreter rebuild): stable across
 *    processes, changes with any semantic program edit;
 *  - the trace hash: FNV-1a over ScheduleTrace::serialize(), i.e.
 *    the exact recorded schedule + input log the classification
 *    consumed;
 *  - the config hash: every PortendOptions dial that can change a
 *    verdict or the rendered report bytes (explorer, Mp/Ma,
 *    detector, symbolic-input selection, budgets, seeds), plus a
 *    caller-supplied salt for per-unit state the options struct
 *    cannot see (semantic predicates travel by workload name; the
 *    render mode travels with the caller).
 *
 * Deliberately excluded: `jobs` (verdicts are byte-identical for
 * every worker count) and wall-clock. The same
 * determinism results that make replay-based analysis sound make
 * this key sound: equal key implies equal verdict bytes.
 */

#ifndef PORTEND_CAMPAIGN_SIGNATURE_H
#define PORTEND_CAMPAIGN_SIGNATURE_H

#include <cstdint>
#include <string>

#include "portend/analyzer.h"
#include "replay/trace.h"

namespace portend::campaign {

/** The three key components of one cached verdict. */
struct UnitKey
{
    std::uint64_t fingerprint = 0; ///< rt::programFingerprint
    std::uint64_t trace_hash = 0;  ///< traceHash (0 = trace unknown)
    std::uint64_t config_hash = 0; ///< configHash

    bool operator==(const UnitKey &o) const = default;
};

/** Hash the recorded schedule + input log a classification consumed. */
std::uint64_t traceHash(const replay::ScheduleTrace &trace);

/**
 * Hash every verdict-relevant analysis dial of @p opts, folding in
 * @p salt (unit name + render mode + anything else the caller's
 * verdict bytes depend on). `jobs` is excluded by design.
 */
std::uint64_t configHash(const core::PortendOptions &opts,
                         const std::string &salt = "");

/** Collapse a key into the 16-hex-digit campaign signature. */
std::string signatureHex(const UnitKey &key);

/** Render a raw 64-bit hash as 16 hex digits (cache file names). */
std::string hex16(std::uint64_t h);

/** Parse a 16-hex-digit signature; false on malformed input. */
bool parseHex16(const std::string &s, std::uint64_t *out);

} // namespace portend::campaign

#endif // PORTEND_CAMPAIGN_SIGNATURE_H
