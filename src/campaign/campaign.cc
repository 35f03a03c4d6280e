#include "campaign/campaign.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "explore/explorer.h"
#include "ir/serialize.h"
#include "rt/decode.h"
#include "support/parallel.h"
#include "support/trace.h"
#include "sym/solver.h"
#include "workloads/registry.h"

namespace fs = std::filesystem;

namespace portend::campaign {

namespace {

const char kManifestMagic[] = "portend-campaign-v1";
const char kManifestFile[] = "manifest";
const char kJournalFile[] = "journal.jsonl";
const char kCacheDir[] = "cache";

/**
 * Analysis dials that are constants now. Manifests keep naming them
 * at these values, in their old places, so campaign directories
 * written when they were options still reopen; any other value is
 * refused.
 */
struct FixedDial
{
    const char *key;
    std::uint64_t value;
};

const FixedDial kFixedDials[] = {
    {"max_symbolic_inputs", core::kMaxSymbolicInputs},
    {"timeout_factor", core::kTimeoutFactor},
    {"preemption_bound",
     static_cast<std::uint64_t>(explore::ExplorerOptions{}.preemption_bound)},
    {"solver.max_assignments", sym::SolverOptions{}.max_assignments},
    {"solver.max_candidates", sym::kMaxCandidates},
    {"total_state_budget", 0},
    {"total_step_budget", 0},
};

/** The value retired dial @p key is fixed at, or null for any other
 *  key. */
const std::uint64_t *
fixedDial(const std::string &key)
{
    for (const FixedDial &d : kFixedDials)
        if (key == d.key)
            return &d.value;
    return nullptr;
}

const char *
detectorName(core::DetectorKind d)
{
    switch (d) {
    case core::DetectorKind::HappensBefore: return "hb";
    case core::DetectorKind::HappensBeforeNoMutex: return "hb-nomutex";
    case core::DetectorKind::Lockset: return "lockset";
    }
    return "hb";
}

bool
parseDetector(const std::string &s, core::DetectorKind *out)
{
    if (s == "hb")
        *out = core::DetectorKind::HappensBefore;
    else if (s == "hb-nomutex")
        *out = core::DetectorKind::HappensBeforeNoMutex;
    else if (s == "lockset")
        *out = core::DetectorKind::Lockset;
    else
        return false;
    return true;
}

bool
parseExplore(const std::string &s, explore::ExploreMode *out)
{
    if (s == "dpor")
        *out = explore::ExploreMode::Dpor;
    else if (s == "random")
        *out = explore::ExploreMode::Random;
    else
        return false;
    return true;
}

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

/** The render-mode half of the cache key: payload bytes depend on
 *  the output shape, so it salts the config hash (see unitSalt). */
std::string
renderSalt(const core::RenderMode &m)
{
    std::string s = "render=";
    s += m.json ? 'j' : '-';
    s += m.stats ? 's' : '-';
    s += m.classify_mode ? 'c' : '-';
    s += ';';
    s += m.only_class ? core::raceClassName(*m.only_class) : "-";
    return s;
}

/**
 * The per-unit config-hash salt. The unit name is rendered into the
 * payload (report headers), so it must be part of the key; the
 * render mode decides the payload's shape.
 */
std::string
unitSalt(const UnitSpec &spec, const core::RenderMode &render)
{
    return "unit=" + spec.kind + ":" + spec.name + ";" +
           renderSalt(render);
}

void
emitUnitEvent(const UnitResult &u)
{
    if (!obs::progress())
        return;
    const char *source = "executed";
    if (u.source == UnitSource::CacheHit)
        source = "cache";
    else if (u.source == UnitSource::Journal)
        source = "journal";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"event\": \"campaign_unit\", \"unit\": %zu, "
                  "\"kind\": \"%s\", \"name\": \"%s\", "
                  "\"sig\": \"%s\", \"source\": \"%s\"}",
                  u.index, u.spec.kind.c_str(), u.spec.name.c_str(),
                  u.sig.c_str(), source);
    obs::progressLine(buf);
}

/** Load a unit's program as a workload (registry name or PIL file). */
bool
loadUnit(const UnitSpec &spec, workloads::Workload *out,
         std::string *error)
{
    if (spec.kind == "workload") {
        bool known = false;
        for (const auto &n : workloads::workloadNames())
            known = known || n == spec.name;
        for (const auto &n : workloads::extensionWorkloadNames())
            known = known || n == spec.name;
        if (!known)
            return fail(error, "unknown workload: " + spec.name);
        *out = workloads::buildWorkload(spec.name);
        return true;
    }
    if (spec.kind == "file") {
        std::ifstream is(spec.name, std::ios::binary);
        if (!is)
            return fail(error, "cannot open file: " + spec.name);
        std::ostringstream os;
        os << is.rdbuf();
        std::string err;
        std::optional<ir::Program> prog =
            ir::deserializeProgram(os.str(), &err);
        if (!prog)
            return fail(error, spec.name + ": " + err);
        out->name = prog->name.empty() ? spec.name : prog->name;
        out->language = "PIL";
        out->program = std::move(*prog);
        return true;
    }
    return fail(error, "unknown unit kind: " + spec.kind);
}

} // namespace

std::vector<UnitSpec>
registryUnits()
{
    std::vector<UnitSpec> units;
    for (const std::string &n : workloads::workloadNames())
        units.push_back({"workload", n});
    return units;
}

std::string
manifestText(const CampaignConfig &config)
{
    const core::PortendOptions &o = config.analysis;
    std::ostringstream os;
    const auto fixed = [&os](const char *key) {
        os << key << " " << *fixedDial(key) << "\n";
    };
    os << kManifestMagic << "\n";
    os << "render.json " << (config.render.json ? 1 : 0) << "\n";
    os << "render.stats " << (config.render.stats ? 1 : 0) << "\n";
    os << "render.classify " << (config.render.classify_mode ? 1 : 0)
       << "\n";
    if (config.render.only_class) {
        os << "render.only_class "
           << core::raceClassName(*config.render.only_class) << "\n";
    }
    os << "mp " << o.mp << "\n";
    os << "ma " << o.ma << "\n";
    os << "adhoc " << (o.adhoc_detection ? 1 : 0) << "\n";
    os << "multi_path " << (o.multi_path ? 1 : 0) << "\n";
    os << "multi_schedule " << (o.multi_schedule ? 1 : 0) << "\n";
    fixed("max_symbolic_inputs");
    for (const rt::SymInputSpec &s : o.sym_inputs) {
        os << "sym_input " << (s.has_range ? 1 : 0) << " " << s.lo
           << " " << s.hi << " " << s.name << "\n";
    }
    fixed("timeout_factor");
    os << "max_steps " << o.max_steps << "\n";
    os << "detection_seed " << o.detection_seed << "\n";
    os << "detector " << detectorName(o.detector) << "\n";
    os << "explore " << explore::exploreModeName(o.explore) << "\n";
    fixed("preemption_bound");
    fixed("solver.max_assignments");
    fixed("solver.max_candidates");
    os << "executor_max_states " << o.executor_max_states << "\n";
    fixed("total_state_budget");
    fixed("total_step_budget");
    for (const UnitSpec &u : config.units)
        os << "unit " << u.kind << " " << u.name << "\n";
    return os.str();
}

std::optional<CampaignConfig>
parseManifest(const std::string &text, std::string *error)
{
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line) || line != kManifestMagic) {
        fail(error, std::string("manifest: expected ") +
                        kManifestMagic + " header");
        return std::nullopt;
    }

    CampaignConfig config;
    core::PortendOptions &o = config.analysis;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        auto rest = [&ls]() {
            std::string r;
            std::getline(ls, r);
            if (!r.empty() && r.front() == ' ')
                r.erase(0, 1);
            return r;
        };
        bool ok = true;
        if (key == "render.json") {
            int v = 0; ok = bool(ls >> v); config.render.json = v != 0;
        } else if (key == "render.stats") {
            int v = 0; ok = bool(ls >> v); config.render.stats = v != 0;
        } else if (key == "render.classify") {
            int v = 0; ok = bool(ls >> v);
            config.render.classify_mode = v != 0;
        } else if (key == "render.only_class") {
            std::optional<core::RaceClass> c =
                core::raceClassFromName(rest());
            ok = c.has_value();
            config.render.only_class = c;
        } else if (key == "mp") {
            ok = bool(ls >> o.mp);
        } else if (key == "ma") {
            ok = bool(ls >> o.ma);
        } else if (key == "adhoc") {
            int v = 0; ok = bool(ls >> v); o.adhoc_detection = v != 0;
        } else if (key == "multi_path") {
            int v = 0; ok = bool(ls >> v); o.multi_path = v != 0;
        } else if (key == "multi_schedule") {
            int v = 0; ok = bool(ls >> v); o.multi_schedule = v != 0;
        } else if (key == "sym_input") {
            rt::SymInputSpec s;
            int has_range = 0;
            ok = bool(ls >> has_range >> s.lo >> s.hi);
            s.has_range = has_range != 0;
            s.name = rest();
            ok = ok && !s.name.empty();
            if (ok)
                o.sym_inputs.push_back(std::move(s));
        } else if (key == "max_steps") {
            ok = bool(ls >> o.max_steps);
        } else if (key == "detection_seed") {
            ok = bool(ls >> o.detection_seed);
        } else if (key == "detector") {
            std::string v;
            ok = bool(ls >> v) && parseDetector(v, &o.detector);
        } else if (key == "explore") {
            std::string v;
            ok = bool(ls >> v) && parseExplore(v, &o.explore);
        } else if (key == "executor_max_states") {
            ok = bool(ls >> o.executor_max_states);
        } else if (const std::uint64_t *value = fixedDial(key)) {
            std::uint64_t v = 0;
            ok = bool(ls >> v) && v == *value;
        } else if (key == "unit") {
            UnitSpec u;
            ok = bool(ls >> u.kind);
            u.name = rest();
            ok = ok && !u.name.empty();
            if (ok)
                config.units.push_back(std::move(u));
        } else {
            // Unknown key = newer writer; this loader cannot honor a
            // dial it does not know, so refuse instead of mis-running.
            ok = false;
        }
        // Anything after the value(s) makes the line bad too: `mp 1
        // 9` or `timeout_factor 5x` must not run as Mp 1 or factor 5.
        ok = ok && (ls >> std::ws).eof();
        if (!ok) {
            fail(error, "manifest: bad line: " + line);
            return std::nullopt;
        }
    }
    if (config.units.empty()) {
        fail(error, "manifest: no units");
        return std::nullopt;
    }
    return config;
}

bool
CampaignResult::complete() const
{
    for (const UnitResult &u : units)
        if (u.source == UnitSource::Pending)
            return false;
    return !units.empty();
}

std::string
CampaignResult::mergedOutput(bool json) const
{
    // Exactly the one-shot batch CLI's join: JSON objects (each
    // carrying its trailing newline) become array elements; text
    // reports are separated by one blank line.
    std::string out;
    if (json) {
        out = "[\n";
        for (std::size_t i = 0; i < units.size(); ++i) {
            std::string body = units[i].rendered;
            if (!body.empty() && body.back() == '\n')
                body.pop_back();
            out += body;
            if (i + 1 < units.size())
                out += ",";
            out += "\n";
        }
        out += "]\n";
        return out;
    }
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (i)
            out += "\n";
        out += units[i].rendered;
    }
    return out;
}

bool
executeUnit(const CampaignConfig &config, std::size_t index,
            VerdictCache &cache, UnitResult *out, std::string *error,
            std::string *store_error)
{
    if (index >= config.units.size())
        return fail(error, "unit index out of range");
    out->index = index;
    out->spec = config.units[index];

    workloads::Workload w;
    if (!loadUnit(out->spec, &w, error))
        return false;

    core::PortendOptions opts = config.analysis;
    opts.jobs = 1; // units fan out; inner pipelines stay serial
    opts.semantic_predicates = w.semantic_predicates;

    core::Portend tool(w.program, opts);
    core::DetectionResult det = tool.detect();

    UnitKey key;
    key.fingerprint = rt::programFingerprint(w.program);
    key.trace_hash = traceHash(det.trace);
    key.config_hash =
        configHash(opts, unitSalt(out->spec, config.render));
    out->key = key;
    out->sig = signatureHex(key);

    std::optional<CacheEntry> hit = cache.probe(out->sig);
    if (hit) {
        out->rendered = hit->payload;
        out->source = UnitSource::CacheHit;
        out->metrics.add(obs::Counter::PipelineWorkloads, 1);
        out->metrics.merge(det.metrics);
        return true;
    }

    core::PortendResult res = tool.runFrom(std::move(det));
    out->rendered = core::renderPipelineReport(
        w.name, w.program, res, opts.mp, opts.ma, config.render);
    out->metrics = res.metrics;
    out->source = UnitSource::Executed;

    CacheEntry entry;
    entry.sig = out->sig;
    entry.key = key;
    entry.name = out->spec.name;
    entry.payload = out->rendered;
    cache.store(entry, store_error);
    return true;
}

Campaign::Campaign(CampaignConfig config)
    : config_(std::move(config)),
      cache_(std::make_unique<VerdictCache>())
{}

Campaign::Campaign(CampaignConfig config, std::string dir,
                   std::string cache_dir)
    : config_(std::move(config)), dir_(std::move(dir)),
      cache_(std::make_unique<VerdictCache>(
          cache_dir.empty() ? (fs::path(dir_) / kCacheDir).string()
                            : cache_dir))
{}

std::string
Campaign::journalPath() const
{
    return dir_.empty()
               ? std::string()
               : (fs::path(dir_) / kJournalFile).string();
}

std::optional<Campaign>
Campaign::create(const std::string &dir, CampaignConfig config,
                 std::string *error, const std::string &cache_dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        fail(error, "cannot create campaign dir: " + dir + ": " +
                        ec.message());
        return std::nullopt;
    }

    fs::path manifest = fs::path(dir) / kManifestFile;
    std::string text = manifestText(config);
    if (fs::exists(manifest)) {
        // Re-entry: the stored manifest must match exactly. Silently
        // adopting a new config would poison the journal/cache pair.
        std::ifstream is(manifest, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        if (os.str() != text) {
            fail(error,
                 "campaign at " + dir +
                     " has a different configuration; use `campaign "
                     "resume` to continue it as-is");
            return std::nullopt;
        }
        return Campaign(std::move(config), dir, cache_dir);
    }

    fs::path tmp = fs::path(dir) / (std::string(kManifestFile) + ".tmp");
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os << text;
        if (!os) {
            fail(error, "cannot write manifest in " + dir);
            return std::nullopt;
        }
    }
    fs::rename(tmp, manifest, ec);
    if (ec) {
        fail(error, "cannot publish manifest: " + ec.message());
        return std::nullopt;
    }
    return Campaign(std::move(config), dir, cache_dir);
}

std::optional<Campaign>
Campaign::open(const std::string &dir, std::string *error,
               const std::string &cache_dir)
{
    fs::path manifest = fs::path(dir) / kManifestFile;
    std::ifstream is(manifest, std::ios::binary);
    if (!is) {
        fail(error, "no campaign at " + dir + " (missing manifest)");
        return std::nullopt;
    }
    std::ostringstream os;
    os << is.rdbuf();
    std::optional<CampaignConfig> config =
        parseManifest(os.str(), error);
    if (!config)
        return std::nullopt;
    return Campaign(std::move(*config), dir, cache_dir);
}

CampaignResult
Campaign::replayJournal()
{
    CampaignResult result;
    result.units.resize(config_.units.size());
    for (std::size_t i = 0; i < config_.units.size(); ++i) {
        result.units[i].index = i;
        result.units[i].spec = config_.units[i];
    }

    // Every journaled unit whose cache entry is present is done — no
    // execution at all. A journaled unit with a lost cache entry
    // simply re-runs (always sound).
    const std::string journal_path = journalPath();
    if (journal_path.empty())
        return result;
    std::vector<JournalRecord> records =
        loadJournal(journal_path, &result.journal_torn);
    result.journal_replays = static_cast<int>(records.size());
    for (const JournalRecord &rec : records) {
        if (rec.unit >= result.units.size())
            continue;
        UnitResult &u = result.units[rec.unit];
        if (u.source != UnitSource::Pending)
            continue; // duplicate record (re-run overlap)
        if (u.spec.kind != rec.kind || u.spec.name != rec.name)
            continue; // journal from another manifest shape
        std::optional<CacheEntry> hit = cache_->probe(rec.sig);
        if (!hit)
            continue;
        u.sig = rec.sig;
        u.key = rec.key;
        u.rendered = hit->payload;
        u.source = UnitSource::Journal;
        result.resume_skips += 1;
        emitUnitEvent(u);
    }
    return result;
}

bool
Campaign::openJournal(std::string *error)
{
    const std::string path = journalPath();
    if (path.empty())
        return true; // ephemeral: nothing to journal
    if (!journal_)
        journal_ = std::make_unique<JournalWriter>();
    return journal_->isOpen() || journal_->open(path, error);
}

void
Campaign::closeJournal()
{
    if (journal_)
        journal_->close();
}

bool
Campaign::recordCompletion(CampaignResult &result, std::size_t index,
                           const std::string &sig, bool cached,
                           std::string *error)
{
    if (index >= result.units.size())
        return fail(error, "completion for out-of-range unit index");
    UnitResult &u = result.units[index];
    if (u.source != UnitSource::Pending)
        return true; // duplicate completion (re-dispatch overlap)
    std::optional<CacheEntry> hit = cache_->probe(sig);
    if (!hit)
        return fail(error,
                    "no cache entry for reported signature " + sig);
    u.sig = sig;
    u.key = hit->key;
    u.rendered = hit->payload;
    u.source = cached ? UnitSource::CacheHit : UnitSource::Executed;

    if (journal_ && journal_->isOpen()) {
        JournalRecord rec;
        rec.unit = index;
        rec.kind = u.spec.kind;
        rec.name = u.spec.name;
        rec.sig = sig;
        rec.key = hit->key;
        std::string jerr;
        if (!journal_->append(rec, &jerr) && result.error.empty())
            result.error = jerr;
    }
    emitUnitEvent(u);
    return true;
}

void
Campaign::finalize(CampaignResult &result) const
{
    // Merge: unit shards in manifest order, then the engine's own
    // counters — one fixed order, so --metrics-out bytes stay
    // deterministic across --jobs values.
    for (const UnitResult &u : result.units) {
        result.metrics.merge(u.metrics);
        if (u.source == UnitSource::Executed)
            result.executed += 1;
        else if (u.source == UnitSource::CacheHit)
            result.cache_hits += 1;
    }
    using obs::Counter;
    result.metrics.add(Counter::CampaignUnits,
                       result.units.size());
    result.metrics.add(Counter::CampaignCacheHits,
                       static_cast<std::uint64_t>(result.cache_hits));
    result.metrics.add(Counter::CampaignCacheMisses,
                       static_cast<std::uint64_t>(result.executed));
    result.metrics.add(
        Counter::CampaignJournalReplays,
        static_cast<std::uint64_t>(result.journal_replays));
    result.metrics.add(
        Counter::CampaignResumeSkips,
        static_cast<std::uint64_t>(result.resume_skips));
}

CampaignResult
Campaign::run(int abort_after_units, int jobs_override)
{
    obs::Span span("campaign", "run");

    // Phase 1: journal replay.
    CampaignResult result = replayJournal();

    // Phase 2: execute what remains.
    std::vector<std::size_t> pending;
    for (const UnitResult &u : result.units)
        if (u.source == UnitSource::Pending)
            pending.push_back(u.index);

    std::mutex journal_mu;
    std::string first_error;
    if (!openJournal(&first_error)) {
        result.error = first_error;
        return result;
    }

    std::atomic<int> journaled{0};
    std::atomic<bool> failed{false};

    auto runUnit = [&](std::size_t index) {
        UnitResult &u = result.units[index];
        std::string err, store_err;
        if (!executeUnit(config_, index, *cache_, &u, &err,
                         &store_err)) {
            std::lock_guard<std::mutex> lock(journal_mu);
            if (result.error.empty())
                result.error = err;
            failed.store(true);
            return;
        }
        if (!store_err.empty()) {
            std::lock_guard<std::mutex> lock(journal_mu);
            if (result.error.empty())
                result.error = store_err;
        }

        if (journal_ && journal_->isOpen()) {
            JournalRecord rec;
            rec.unit = index;
            rec.kind = u.spec.kind;
            rec.name = u.spec.name;
            rec.sig = u.sig;
            rec.key = u.key;
            std::string jerr;
            std::lock_guard<std::mutex> lock(journal_mu);
            if (!journal_->append(rec, &jerr) && result.error.empty())
                result.error = jerr;
        }
        journaled.fetch_add(1);
        emitUnitEvent(u);
    };

    const int jobs = resolveJobs(
        jobs_override > 0 ? jobs_override : config_.analysis.jobs);
    parallelFor(jobs, pending.size(), [&](std::size_t i) {
        // The abort hook is checked before each unit: units start in
        // ascending order, so once the limit is reached no later
        // unit starts (with one worker the cut is exact).
        if (failed.load())
            return;
        if (abort_after_units >= 0 &&
            journaled.load() >= abort_after_units)
            return;
        runUnit(pending[i]);
    });
    closeJournal();

    result.aborted = abort_after_units >= 0 &&
                     journaled.load() <
                         static_cast<int>(pending.size()) &&
                     result.error.empty();

    finalize(result);

    span.arg("units",
             static_cast<std::int64_t>(result.units.size()));
    span.arg("executed", static_cast<std::int64_t>(result.executed));
    return result;
}

Campaign::Status
Campaign::status()
{
    Status st;
    st.total_units = config_.units.size();
    st.cache_entries = cache_->sizeOnDisk();
    if (dir_.empty())
        return st;
    std::vector<JournalRecord> records = loadJournal(
        (fs::path(dir_) / kJournalFile).string(), &st.journal_torn);
    std::vector<bool> done(config_.units.size(), false);
    for (const JournalRecord &rec : records) {
        if (rec.unit >= done.size() || done[rec.unit])
            continue;
        if (config_.units[rec.unit].kind != rec.kind ||
            config_.units[rec.unit].name != rec.name)
            continue;
        if (!cache_->probe(rec.sig))
            continue;
        done[rec.unit] = true;
        st.completed_units += 1;
    }
    return st;
}

} // namespace portend::campaign
