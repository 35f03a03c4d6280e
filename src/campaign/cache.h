/**
 * @file
 * Content-addressed verdict cache (`portend-campaign-v1` cache spec).
 *
 * One entry per campaign signature: the key components (program
 * fingerprint, config hash — see signature.h) plus the unit's
 * rendered verdict payload, stored verbatim. Because the signature
 * names everything the payload is a function of, a probe hit
 * replaces the entire detection and classification of a unit with
 * one file read — that is the whole warm-rerun, resume and
 * duplicate-dedup story: an entry that is present is a unit that
 * is done.
 *
 * Entries live as `<dir>/<sig>.entry` in a plain text-header format:
 *
 *   portend-campaign-entry-v1
 *   sig <16 hex>
 *   fp <16 hex>
 *   trace 0000000000000000
 *   cfg <16 hex>
 *   name <unit name>
 *   bytes <payload byte count>
 *   <raw payload bytes>
 *
 * The `trace` line is the retired trace-hash slot, always written as
 * zeros so entry bytes never moved. Writes go through a temp file +
 * rename so a kill mid-store never leaves a torn entry under the
 * content address. A memory map
 * layered in front makes within-run duplicate probes free and lets
 * an ephemeral campaign (no directory) still dedup by signature.
 */

#ifndef PORTEND_CAMPAIGN_CACHE_H
#define PORTEND_CAMPAIGN_CACHE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "campaign/signature.h"

namespace portend::campaign {

/** One cached verdict. */
struct CacheEntry
{
    std::string sig;     ///< 16-hex campaign signature
    UnitKey key;         ///< the signature's components
    std::string name;    ///< unit name (diagnostics only)
    std::string payload; ///< rendered verdict bytes, verbatim
};

/** Serialize @p e in the on-disk entry format. */
std::string serializeCacheEntry(const CacheEntry &e);

/** Parse the on-disk entry format; nullopt on malformed input. */
std::optional<CacheEntry>
deserializeCacheEntry(const std::string &text);

/**
 * Signature-addressed store: optional directory backing plus an
 * always-on memory map. Thread-safe.
 */
class VerdictCache
{
  public:
    /** @param dir entry directory ("" = memory-only). Created lazily
     *  on first store. */
    explicit VerdictCache(std::string dir = "");

    /**
     * Look up @p sig: memory first, then disk (a disk hit is pulled
     * into memory). A disk entry whose recorded signature disagrees
     * with its file name is treated as absent.
     */
    std::optional<CacheEntry> probe(const std::string &sig);

    /**
     * Store @p e under its signature (idempotent; last store wins in
     * memory, first *valid* file wins on disk — an existing entry
     * that fails to deserialize or names the wrong signature is
     * replaced, so corruption repairs itself on the next store).
     * Disk I/O failures degrade to memory-only and are reported
     * through @p error once.
     */
    bool store(const CacheEntry &e, std::string *error = nullptr);

    /** Number of `.entry` files under the backing dir (0 if none). */
    std::size_t sizeOnDisk() const;

    const std::string &dir() const { return dir_; }

  private:
    std::string entryPath(const std::string &sig) const;

    std::string dir_;
    mutable std::mutex mu_;
    std::map<std::string, CacheEntry> mem_;
};

} // namespace portend::campaign

#endif // PORTEND_CAMPAIGN_CACHE_H
