/**
 * @file
 * The campaign engine: batch classification as a first-class,
 * persistent object (`portend-campaign-v1`).
 *
 * A Campaign is a manifest of work units (program × analysis config)
 * plus a content-addressed verdict cache keyed by the deterministic
 * campaign signature (signature.h). The key is taken before
 * detection, so the cache alone says which units are done: the
 * probe phase fills every unit whose entry is present, and the
 * engine runs the rest with support/parallel.h's parallelFor, each
 * through the standard detect→classify pipeline from the program and
 * key the probe phase built, storing its rendered verdict. Rendered
 * verdict bytes merge in manifest order, so campaign output is
 * byte-identical to the one-shot batch loops it replaces — and
 * byte-identical across kills and resumes.
 *
 * Three properties carry the whole design:
 *  - *cold identity*: an ephemeral campaign (no directory, so no
 *    cache) renders exactly the bytes `classify --all`/`run --all`
 *    always produced;
 *  - *cache soundness*: equal signature implies equal verdict bytes
 *    (the pipeline is deterministic at every --jobs value), so
 *    replaying a cached payload is indistinguishable from re-running
 *    the unit;
 *  - *resume exactness*: an entry is published by temp + rename
 *    only once its verdict is complete, so a unit counts as done
 *    exactly when its entry is there; killed campaigns resume with
 *    the remaining units and merge to the same bytes as an
 *    uninterrupted run, and a lost entry re-runs only its own unit.
 */

#ifndef PORTEND_CAMPAIGN_CAMPAIGN_H
#define PORTEND_CAMPAIGN_CAMPAIGN_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/cache.h"
#include "campaign/signature.h"
#include "portend/render.h"
#include "support/observe.h"
#include "workloads/workload.h"

namespace portend::campaign {

/** One work unit in the manifest. */
struct UnitSpec
{
    std::string kind; ///< "workload" (registry name) | "file" (PIL path)
    std::string name;

    bool operator==(const UnitSpec &o) const = default;
};

/** Everything a campaign is parameterized by. */
struct CampaignConfig
{
    core::PortendOptions analysis; ///< `jobs` is runtime-only (not persisted)
    core::RenderMode render;       ///< output shape of cached payloads
    std::vector<UnitSpec> units;   ///< the manifest, in output order
};

/**
 * Load @p spec's program as a workload: a registry name (Table 1 or
 * extension workload) or a serialized PIL file, named after its
 * program (the path when the program has no name). False with
 * @p error set ("unknown workload: X", "cannot open file: P" or
 * "P: <parse error>") when it cannot be loaded.
 */
bool loadUnit(const UnitSpec &spec, workloads::Workload *out,
              std::string *error);

/** The standard batch manifest: every Table 1 registry workload. */
std::vector<UnitSpec> registryUnits();

/** Serialize @p config as the manifest text (`portend-campaign-v1`). */
std::string manifestText(const CampaignConfig &config);

/** Parse manifest text; nullopt with @p error on malformed input,
 *  including a dial the CLI would refuse (`mp`, `ma`,
 *  `executor_max_states` or `max_steps` below 1, a negative seed). */
std::optional<CampaignConfig>
parseManifest(const std::string &text, std::string *error = nullptr);

/** How one unit's verdict bytes were obtained. */
enum class UnitSource : std::uint8_t {
    Pending,  ///< not reached (campaign aborted first)
    Executed, ///< full detect + classify ran
    CacheHit, ///< no execution at all: the payload came from the cache
};

/** One unit's outcome. */
struct UnitResult
{
    std::size_t index = 0;
    UnitSpec spec;
    std::string sig;      ///< 16-hex campaign signature ("" if Pending)
    std::string rendered; ///< verdict bytes ("" if Pending)
    UnitSource source = UnitSource::Pending;

    /** Pipeline metrics of an executed unit (a cache hit executes
     *  nothing and contributes an empty shard). */
    obs::MetricsShard metrics;
};

/** Outcome of one Campaign::run(). */
struct CampaignResult
{
    std::vector<UnitResult> units; ///< manifest order, all units

    /** The unit shards and the engine's own campaign.* counters:
     *  `campaign.cache_misses` counts the units that ran the full
     *  pipeline, `campaign.cache_hits` those whose payload came from
     *  the cache. */
    obs::MetricsShard metrics;

    bool aborted = false; ///< stopped by the unit-count abort hook
    std::string error;    ///< first load or store error, in manifest order

    /** True when every unit has verdict bytes. */
    bool complete() const;

    /** All units' rendered bytes, joined exactly like the one-shot
     *  batch CLI: text reports separated by one blank line, JSON
     *  objects wrapped into an array. */
    std::string mergedOutput(bool json) const;
};

/**
 * Execute one manifest unit against @p cache: load the program,
 * compute the campaign signature, probe the cache, run detection and
 * classification on a miss, and store the rendered verdict back. The
 * serve layer's worker processes call it and report the signature to
 * the server, which re-probes the shared cache; run() executes its
 * misses from what its probe phase built and calls it only for a
 * unit that did not load there. False with @p error on a load
 * or pipeline failure; a cache-store I/O error surfaces through
 * @p store_error without failing the unit.
 */
bool executeUnit(const CampaignConfig &config, std::size_t index,
                 VerdictCache &cache, UnitResult *out,
                 std::string *error, std::string *store_error = nullptr);

/**
 * A classification campaign over a fixed manifest. Construct
 * ephemeral (no directory) via the config constructor, or persistent
 * via create()/open().
 *
 * run() is the one-process driver; the serve layer drives the same
 * phases across worker processes instead: probeCache() to fill the
 * units that are already done, campaign::executeUnit() inside each
 * worker against the shared on-disk cache, recordCompletion() on
 * the server for every unit a worker reports done, and finalize() to
 * merge metrics — the resume and byte-identity contracts hold for
 * both drivers because they are properties of the phases, not of
 * the threading.
 */
class Campaign
{
  public:
    /** Ephemeral campaign: no directory and so no verdict cache;
     *  every unit runs. */
    explicit Campaign(CampaignConfig config);

    /**
     * Create or re-enter the campaign at @p dir. A fresh directory
     * is initialized (manifest written); an existing campaign is
     * re-entered only when its manifest matches @p config exactly —
     * a mismatch is an error, never a silent re-configuration.
     *
     * @param cache_dir overrides the verdict-cache directory
     *        (default `<dir>/cache`) — the serve layer points every
     *        campaign at one shared cross-campaign cache.
     */
    static std::optional<Campaign> create(const std::string &dir,
                                          CampaignConfig config,
                                          std::string *error = nullptr,
                                          const std::string &cache_dir = "");

    /** Open an existing campaign, taking every parameter from its
     *  manifest (the resume path: flags cannot skew a resumed run). */
    static std::optional<Campaign> open(const std::string &dir,
                                        std::string *error = nullptr,
                                        const std::string &cache_dir = "");

    /**
     * Execute every unit the cache does not already hold and merge
     * all results in manifest order.
     *
     * @param abort_after_units when >= 0, stop claiming new units
     *        once that many have been executed *and stored* by this
     *        call — the crash simulation behind the kill-and-resume
     *        tests (with --jobs 1 the cut is exact; with more
     *        workers, in-flight units still finish).
     * @param jobs_override when > 0, overrides config.analysis.jobs.
     */
    CampaignResult run(int abort_after_units = -1,
                       int jobs_override = 0);

    /**
     * Phase 1 of run(), exposed for external drivers: a fresh
     * result skeleton with every unit whose signature the cache
     * holds filled from it, and every other unit Pending. Nothing
     * runs: each unit's program is loaded only to key it, and a
     * unit that cannot be loaded stays Pending, so its error
     * surfaces when it executes.
     */
    CampaignResult probeCache();

    /**
     * Record one externally executed unit: probe the cache for
     * @p sig (the worker stored the entry before reporting, so a
     * miss means the worker lied or its store was lost — false,
     * re-dispatch) and fill the unit's payload in @p result.
     * @p cached distinguishes a worker-side cache hit from a full
     * execution (bookkeeping only; the bytes are identical).
     */
    bool recordCompletion(CampaignResult &result, std::size_t index,
                          const std::string &sig, bool cached,
                          std::string *error = nullptr);

    /** The merge phase of run(): fold unit shards and the engine's
     *  campaign.* counters into result.metrics (idempotent only if
     *  called once — call after the last completion). */
    void finalize(CampaignResult &result) const;

    /** The verdict cache (shared-dir campaigns share entries). */
    VerdictCache &cache() { return cache_; }

    const CampaignConfig &config() const { return config_; }
    const std::string &dir() const { return dir_; }

    /** Campaign state summary (for `portend campaign status`). */
    struct Status
    {
        std::size_t total_units = 0;
        std::size_t completed_units = 0; ///< units the cache holds
        std::size_t cache_entries = 0;   ///< .entry files on disk
    };
    Status status();

  private:
    Campaign(CampaignConfig config, std::string dir,
             std::string cache_dir = "");

    CampaignConfig config_;
    std::string dir_; ///< "" = ephemeral
    VerdictCache cache_;
};

} // namespace portend::campaign

#endif // PORTEND_CAMPAIGN_CAMPAIGN_H
