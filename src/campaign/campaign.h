/**
 * @file
 * The campaign engine: batch classification as a first-class,
 * persistent object (`portend-campaign-v1`).
 *
 * A Campaign is a manifest of work units (program × analysis config),
 * a content-addressed verdict cache keyed by the deterministic
 * campaign signature (signature.h), and an append-only fsync'd
 * journal (journal.h). The engine runs the remaining units with
 * support/parallel.h's parallelFor; each unit runs the
 * standard detect→classify pipeline with a cache probe in between
 * (the recorded trace's hash completes the key), journals its
 * completion durably, and streams a JSON-lines event through the
 * obs::Progress sink. Rendered verdict bytes merge in manifest
 * order, so campaign output is byte-identical to the one-shot batch
 * loops it replaces — and byte-identical across kills and resumes.
 *
 * Three properties carry the whole design:
 *  - *cold identity*: an ephemeral campaign (no directory) renders
 *    exactly the bytes `classify --all`/`run --all` always produced;
 *  - *cache soundness*: equal signature implies equal verdict bytes
 *    (the determinism contracts of PRs 2/5/7/8), so replaying a
 *    cached payload is indistinguishable from re-running the unit;
 *  - *resume exactness*: a journal record is written only after its
 *    cache entry, so every journaled unit is replayable; killed
 *    campaigns resume with the remaining units and merge to the
 *    same bytes as an uninterrupted run.
 */

#ifndef PORTEND_CAMPAIGN_CAMPAIGN_H
#define PORTEND_CAMPAIGN_CAMPAIGN_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/cache.h"
#include "campaign/journal.h"
#include "campaign/signature.h"
#include "portend/render.h"
#include "support/observe.h"

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
    CacheHit, ///< detection ran; classification came from the cache
    Journal,  ///< no execution at all: replayed from journal + cache
};

/** One unit's outcome. */
struct UnitResult
{
    std::size_t index = 0;
    UnitSpec spec;
    std::string sig;      ///< 16-hex campaign signature ("" if Pending)
    UnitKey key;          ///< the signature's components (journaling)
    std::string rendered; ///< verdict bytes ("" if Pending)
    UnitSource source = UnitSource::Pending;

    /** Pipeline metrics of an executed/cache-hit unit (a journal
     *  replay executes nothing and contributes an empty shard). */
    obs::MetricsShard metrics;
};

/** Outcome of one Campaign::run(). */
struct CampaignResult
{
    std::vector<UnitResult> units; ///< manifest order, all units

    /** Unit shards merged in manifest order, then the engine's own
     *  campaign.* counters. */
    obs::MetricsShard metrics;

    int executed = 0;        ///< units that ran the full pipeline
    int cache_hits = 0;      ///< post-detection signature probes that hit
    int journal_replays = 0; ///< journal records parsed at open
    int resume_skips = 0;    ///< units skipped entirely via the journal
    int journal_torn = 0;    ///< unparseable journal lines tolerated
    bool aborted = false;    ///< stopped by the unit-count abort hook
    std::string error;       ///< first persistence error ("" = none)

    /** True when every unit has verdict bytes. */
    bool complete() const;

    /** All units' rendered bytes, joined exactly like the one-shot
     *  batch CLI: text reports separated by one blank line, JSON
     *  objects wrapped into an array. */
    std::string mergedOutput(bool json) const;
};

/**
 * Execute one manifest unit against @p cache, with no journaling:
 * load the program, run detection, compute the campaign signature,
 * probe the cache, classify on a miss, and store the rendered
 * verdict back. The completion record is the caller's job — the
 * in-process engine journals it itself, while the serve layer's
 * worker processes report the signature back to the server, which
 * owns the journal (single writer). False with @p error on a load
 * or pipeline failure; cache-store I/O errors degrade to
 * memory-only and surface through @p store_error without failing
 * the unit.
 */
bool executeUnit(const CampaignConfig &config, std::size_t index,
                 VerdictCache &cache, UnitResult *out,
                 std::string *error, std::string *store_error = nullptr);

/**
 * A classification campaign over a fixed manifest. Construct
 * ephemeral (in-memory) via the config constructor, or persistent
 * via create()/open().
 *
 * run() is the one-process driver; the serve layer drives the same
 * phases across worker processes instead: replayJournal() to skip
 * journaled units, campaign::executeUnit() inside each worker
 * against the shared on-disk cache, recordCompletion() on the
 * server for every unit a worker reports done, and finalize() to
 * merge metrics — the resume and byte-identity contracts hold for
 * both drivers because they are properties of the phases, not of
 * the threading.
 */
class Campaign
{
  public:
    /** Ephemeral campaign: no directory, no journal; the in-memory
     *  verdict cache still dedups within the run. */
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
     * Execute every unit the journal does not already cover and
     * merge all results in manifest order.
     *
     * @param abort_after_units when >= 0, stop claiming new units
     *        once that many have been executed *and journaled* by
     *        this call — the crash simulation behind the
     *        kill-and-resume tests (with --jobs 1 the cut is exact;
     *        with more workers, in-flight units still finish).
     * @param jobs_override when > 0, overrides config.analysis.jobs.
     */
    CampaignResult run(int abort_after_units = -1,
                       int jobs_override = 0);

    /**
     * Phase 1 of run(), exposed for external drivers: a fresh
     * result skeleton (every manifest unit Pending) with all
     * journal-covered units replayed from the cache.
     */
    CampaignResult replayJournal();

    /** Open the journal for appending (no-op for ephemeral
     *  campaigns). External drivers call this once before their
     *  first recordCompletion(). */
    bool openJournal(std::string *error = nullptr);
    void closeJournal();

    /**
     * Record one externally executed unit: probe the cache for
     * @p sig (the worker stored the entry before reporting, so a
     * miss means the worker lied or its store was lost — false,
     * re-dispatch), fill the unit's payload in @p result, append
     * the journal record, and bump the result's source counter.
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
    VerdictCache &cache() { return *cache_; }

    const CampaignConfig &config() const { return config_; }
    const std::string &dir() const { return dir_; }

    /** Campaign state summary (for `portend campaign status`). */
    struct Status
    {
        std::size_t total_units = 0;
        std::size_t completed_units = 0; ///< journaled ∧ cache-backed
        std::size_t cache_entries = 0;   ///< .entry files on disk
        int journal_torn = 0;            ///< tolerated bad lines
    };
    Status status();

  private:
    Campaign(CampaignConfig config, std::string dir,
             std::string cache_dir = "");

    std::string journalPath() const;

    CampaignConfig config_;
    std::string dir_; ///< "" = ephemeral
    std::unique_ptr<VerdictCache> cache_;
    std::unique_ptr<JournalWriter> journal_;
};

} // namespace portend::campaign

#endif // PORTEND_CAMPAIGN_CAMPAIGN_H
