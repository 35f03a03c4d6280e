/**
 * @file
 * Deterministic campaign signatures.
 *
 * A campaign caches verdicts by content, so the cache key must name
 * everything a verdict is a function of — and nothing it is not. The
 * key has two components, both known before anything runs:
 *
 *  - the program fingerprint (rt::programFingerprint): stable
 *    across processes, changes with any semantic program edit;
 *  - the config hash: every PortendOptions dial that can change a
 *    verdict or the rendered report bytes (explorer, Mp/Ma,
 *    detector, symbolic-input selection, budgets), plus a
 *    caller-supplied salt for per-unit state the options struct
 *    cannot see (semantic predicates travel by workload name; the
 *    render mode travels with the caller). It also hashes
 *    `detection_seed`, which changes no verdict: it is a cache
 *    namespace, so two otherwise equal configurations can key their
 *    units apart.
 *
 * The recorded detection trace needs no slot of its own: a program
 * run under the same `max_steps` and `detector` always records the
 * same trace (deterministic record and replay), and both dials are
 * in the config hash. So the cache can be probed before detection
 * runs, and a hit skips the whole pipeline.
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

namespace portend::campaign {

/** The two key components of one cached verdict. */
struct UnitKey
{
    std::uint64_t fingerprint = 0; ///< rt::programFingerprint
    std::uint64_t config_hash = 0; ///< configHash

    bool operator==(const UnitKey &o) const = default;
};

/**
 * Hash every verdict-relevant analysis dial of @p opts, folding in
 * @p salt (unit name + render mode + anything else the caller's
 * verdict bytes depend on). `jobs` is excluded by design.
 */
std::uint64_t configHash(const core::PortendOptions &opts,
                         const std::string &salt = "");

/** Collapse a key into the 16-hex-digit campaign signature. The
 *  retired trace-hash slot is hashed as 0, so the names of entries
 *  keyed without a trace (every fuzz campaign's) never moved. */
std::string signatureHex(const UnitKey &key);

/** Render a raw 64-bit hash as 16 hex digits (cache file names). */
std::string hex16(std::uint64_t h);

/** Parse a 16-hex-digit signature; false on malformed input. */
bool parseHex16(const std::string &s, std::uint64_t *out);

} // namespace portend::campaign

#endif // PORTEND_CAMPAIGN_SIGNATURE_H
