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
 * content address. The directory is the whole cache: every probe
 * reads it, and a cache with no directory (an ephemeral campaign)
 * holds nothing.
 */

#ifndef PORTEND_CAMPAIGN_CACHE_H
#define PORTEND_CAMPAIGN_CACHE_H

#include <cstdint>
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
 * Signature-addressed store over one entry directory. Holds no state
 * but the directory name, so any number of threads and processes may
 * share a directory.
 */
class VerdictCache
{
  public:
    /** @param dir entry directory ("" = no cache: every probe misses
     *  and every store is dropped). Created lazily on first store. */
    explicit VerdictCache(std::string dir = "");

    /**
     * Read the entry for @p sig. An entry that does not parse or
     * whose recorded signature disagrees with its file name is
     * treated as absent.
     */
    std::optional<CacheEntry> probe(const std::string &sig) const;

    /**
     * Store @p e under its signature (idempotent: the first *valid*
     * file wins — an existing entry that fails to deserialize or
     * names the wrong signature is replaced, so corruption repairs
     * itself on the next store). False with @p error on an I/O
     * failure; the entry is then simply absent.
     */
    bool store(const CacheEntry &e, std::string *error = nullptr) const;

    /** Number of `.entry` files under the backing dir (0 if none). */
    std::size_t sizeOnDisk() const;

  private:
    std::string entryPath(const std::string &sig) const;

    std::string dir_;
};

} // namespace portend::campaign

#endif // PORTEND_CAMPAIGN_CACHE_H
