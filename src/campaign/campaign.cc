#include "campaign/campaign.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "explore/explorer.h"
#include "ir/serialize.h"
#include "rt/decode.h"
#include "support/parallel.h"
#include "support/str.h"
#include "support/trace.h"
#include "sym/solver.h"
#include "workloads/registry.h"

namespace fs = std::filesystem;

namespace portend::campaign {

namespace {

const char kManifestMagic[] = "portend-campaign-v1";
const char kManifestFile[] = "manifest";
const char kCacheDir[] = "cache";

/**
 * Dials that are constants now: retired analysis budgets and the
 * `render.stats` ledger switch. Manifests keep naming them at these
 * values, in their old places, so campaign directories written when
 * they were options still reopen; any other value is refused.
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
    {"solver.max_assignments", sym::kMaxAssignments},
    {"solver.max_candidates", sym::kMaxCandidates},
    {"total_state_budget", 0},
    {"total_step_budget", 0},
    {"render.stats", 0},
};

/** The stage-3 explorer, a fixed dial whose value is a name: `random`
 *  is refused like any other value. */
const char kExplorer[] = "dpor";

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

/**
 * Read manifest field @p field, all of it, as a number in [@p lo,
 * @p hi]: parseI64's optional '-' and digits, the form manifestText
 * writes. A dial with no negative values (@p lo >= 0) refuses a '-'
 * outright, so `-0` is no zero.
 */
template <typename T>
bool
readNumber(const std::string &field, std::int64_t lo, std::int64_t hi,
           T *out)
{
    std::int64_t v = 0;
    if (!parseI64(field, &v) || v < lo || v > hi ||
        (lo >= 0 && field[0] == '-'))
        return false;
    *out = static_cast<T>(v);
    return true;
}

/** A manifest switch: exactly `0` or `1`. */
bool
readSwitch(const std::string &field, bool *out)
{
    if (field != "0" && field != "1")
        return false;
    *out = field == "1";
    return true;
}

/** Split @p line at its first single space: the part before it goes
 *  to @p head, the rest to @p tail (empty when there is none). */
void
splitField(const std::string &line, std::string *head, std::string *tail)
{
    const std::size_t sp = line.find(' ');
    *head = line.substr(0, sp);
    *tail = sp == std::string::npos ? "" : line.substr(sp + 1);
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
    s += '-'; // the retired `render.stats` slot
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

/** A unit loaded and keyed: everything a cache miss needs to run. */
struct LoadedUnit
{
    workloads::Workload workload;
    core::PortendOptions opts;
    UnitKey key;
    std::string sig;
};

/**
 * Load @p spec and take its cache key, which is known before
 * anything runs. Units fan out, so inner pipelines stay serial, and
 * the workload's predicates apply.
 */
bool
loadAndKey(const CampaignConfig &config, const UnitSpec &spec,
           LoadedUnit *out, std::string *error)
{
    if (!loadUnit(spec, &out->workload, error))
        return false;
    out->opts = config.analysis;
    out->opts.jobs = 1;
    out->opts.semantic_predicates = out->workload.semantic_predicates;
    out->key = {rt::programFingerprint(out->workload.program),
                configHash(out->opts, unitSalt(spec, config.render))};
    out->sig = signatureHex(out->key);
    return true;
}

/** Fill @p out from the cache, or on a miss run the loaded unit and
 *  store its rendered verdict. */
void
runLoaded(const CampaignConfig &config, const LoadedUnit &l,
          VerdictCache &cache, UnitResult *out, std::string *store_error)
{
    out->sig = l.sig;
    if (std::optional<CacheEntry> hit = cache.probe(l.sig)) {
        out->rendered = std::move(hit->payload);
        out->source = UnitSource::CacheHit;
        return;
    }
    const workloads::Workload &w = l.workload;
    core::PortendResult res = core::Portend(w.program, l.opts).run();
    out->rendered = core::renderPipelineReport(
        w.name, w.program, res, l.opts.mp, l.opts.ma, config.render);
    out->metrics = res.metrics;
    out->source = UnitSource::Executed;
    cache.store({l.sig, l.key, out->spec.name, out->rendered},
                store_error);
}

/**
 * The probe phase: a result skeleton with every unit the cache holds
 * filled from it. When @p misses is given, it receives each other
 * unit loaded and keyed (nullopt where loading failed), so executing
 * it builds nothing twice.
 */
CampaignResult
probeUnits(const CampaignConfig &config, VerdictCache &cache,
           std::vector<std::optional<LoadedUnit>> *misses)
{
    CampaignResult result;
    result.units.resize(config.units.size());
    if (misses)
        misses->resize(config.units.size());
    for (std::size_t i = 0; i < config.units.size(); ++i) {
        UnitResult &u = result.units[i];
        u.index = i;
        u.spec = config.units[i];
        LoadedUnit l;
        if (!loadAndKey(config, u.spec, &l, nullptr))
            continue; // a miss: executing it reports why
        std::optional<CacheEntry> hit = cache.probe(l.sig);
        if (!hit) {
            if (misses)
                (*misses)[i] = std::move(l);
            continue;
        }
        u.sig = l.sig;
        u.rendered = std::move(hit->payload);
        u.source = UnitSource::CacheHit;
    }
    return result;
}

} // namespace

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
    fixed("render.stats");
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
    os << "detector " << core::detectorName(o.detector) << "\n";
    os << "explore " << kExplorer << "\n";
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

    // Every line is `key value`, its fields joined by the single
    // spaces manifestText writes: a second blank, a tab or a '+' is
    // a bad line, as is anything after the value.
    using I64 = std::numeric_limits<std::int64_t>;
    constexpr int kIntMax = std::numeric_limits<int>::max();
    // manifestText writes each dial once; only `unit` and `sym_input`
    // lines repeat, so a second line for any other key is a bad line
    // rather than an override.
    CampaignConfig config;
    core::PortendOptions &o = config.analysis;
    std::set<std::string> seen;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::string key, val;
        splitField(line, &key, &val);
        bool ok = true;
        if (key != "unit" && key != "sym_input" &&
            !seen.insert(key).second) {
            ok = false;
        } else if (key == "render.json") {
            ok = readSwitch(val, &config.render.json);
        } else if (key == "render.classify") {
            ok = readSwitch(val, &config.render.classify_mode);
        } else if (key == "render.only_class") {
            config.render.only_class = core::raceClassFromName(val);
            ok = config.render.only_class.has_value();
        } else if (key == "mp") {
            ok = readNumber(val, 1, kIntMax, &o.mp);
        } else if (key == "ma") {
            ok = readNumber(val, 1, kIntMax, &o.ma);
        } else if (key == "adhoc") {
            ok = readSwitch(val, &o.adhoc_detection);
        } else if (key == "multi_path") {
            ok = readSwitch(val, &o.multi_path);
        } else if (key == "multi_schedule") {
            ok = readSwitch(val, &o.multi_schedule);
        } else if (key == "sym_input") {
            // `sym_input <has_range> <lo> <hi> <name>`; the name is
            // the rest of the line.
            rt::SymInputSpec s;
            std::string has_range, lo, hi;
            splitField(val, &has_range, &val);
            splitField(val, &lo, &val);
            splitField(val, &hi, &s.name);
            ok = readSwitch(has_range, &s.has_range) &&
                 readNumber(lo, I64::min(), I64::max(), &s.lo) &&
                 readNumber(hi, I64::min(), I64::max(), &s.hi) &&
                 !s.name.empty();
            // An empty range is refused like the CLI's --sym-input.
            ok = ok && (!s.has_range || s.lo <= s.hi);
            if (ok)
                o.sym_inputs.push_back(std::move(s));
        } else if (key == "max_steps") {
            ok = readNumber(val, 1, I64::max(), &o.max_steps);
        } else if (key == "detection_seed") {
            ok = readNumber(val, 0, I64::max(), &o.detection_seed);
        } else if (key == "detector") {
            std::optional<core::DetectorKind> d =
                core::detectorFromName(val);
            ok = d.has_value();
            o.detector = d.value_or(o.detector);
        } else if (key == "explore") {
            ok = val == kExplorer;
        } else if (key == "executor_max_states") {
            ok = readNumber(val, 1, kIntMax, &o.executor_max_states);
        } else if (const std::uint64_t *value = fixedDial(key)) {
            std::uint64_t v = 0;
            ok = readNumber(val, 0, I64::max(), &v) && v == *value;
        } else if (key == "unit") {
            UnitSpec u;
            splitField(val, &u.kind, &u.name);
            ok = !u.kind.empty() && !u.name.empty();
            if (ok)
                config.units.push_back(std::move(u));
        } else {
            // Unknown key = newer writer; this loader cannot honor a
            // dial it does not know, so refuse instead of mis-running.
            ok = false;
        }
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

    LoadedUnit l;
    if (!loadAndKey(config, out->spec, &l, error))
        return false;
    runLoaded(config, l, cache, out, store_error);
    return true;
}

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {}

Campaign::Campaign(CampaignConfig config, std::string dir,
                   std::string cache_dir)
    : config_(std::move(config)), dir_(std::move(dir)),
      cache_(cache_dir.empty() ? (fs::path(dir_) / kCacheDir).string()
                               : cache_dir)
{}

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
        // Re-entry: the stored manifest must match exactly, since a
        // resume takes every parameter from it.
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
Campaign::probeCache()
{
    return probeUnits(config_, cache_, nullptr);
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
    std::optional<CacheEntry> hit = cache_.probe(sig);
    if (!hit)
        return fail(error,
                    "no cache entry for reported signature " + sig);
    u.sig = sig;
    u.rendered = std::move(hit->payload);
    u.source = cached ? UnitSource::CacheHit : UnitSource::Executed;
    return true;
}

void
Campaign::finalize(CampaignResult &result) const
{
    // Merge the unit shards and count each unit's verdict source: a
    // miss ran the full pipeline, a hit took its payload from the
    // cache.
    using obs::Counter;
    result.metrics.add(Counter::CampaignUnits, result.units.size());
    for (const UnitResult &u : result.units) {
        result.metrics.merge(u.metrics);
        if (u.source == UnitSource::Executed)
            result.metrics.add(Counter::CampaignCacheMisses, 1);
        else if (u.source == UnitSource::CacheHit)
            result.metrics.add(Counter::CampaignCacheHits, 1);
    }
}

CampaignResult
Campaign::run(int abort_after_units, int jobs_override)
{
    obs::Span span("campaign", "run");

    // Phase 1: every unit the cache holds is done; the others stay
    // loaded and keyed for phase 2.
    std::vector<std::optional<LoadedUnit>> loaded;
    CampaignResult result = probeUnits(config_, cache_, &loaded);

    // Phase 2: execute what remains. Each body writes only its own
    // unit and error slot; the first error in manifest order wins.
    std::vector<std::size_t> pending;
    for (const UnitResult &u : result.units)
        if (u.source == UnitSource::Pending)
            pending.push_back(u.index);
    std::vector<std::string> errors(pending.size());
    std::atomic<int> executed{0};
    std::atomic<bool> failed{false};

    const int jobs = resolveJobs(
        jobs_override > 0 ? jobs_override : config_.analysis.jobs);
    parallelFor(jobs, pending.size(), [&](std::size_t i) {
        // The abort hook is checked before each unit: units start in
        // ascending order, so once the limit is reached no later
        // unit starts (with one worker the cut is exact).
        if (failed.load())
            return;
        if (abort_after_units >= 0 &&
            executed.load() >= abort_after_units)
            return;
        UnitResult &u = result.units[pending[i]];
        std::string store_err;
        if (std::optional<LoadedUnit> &l = loaded[u.index]) {
            runLoaded(config_, *l, cache_, &u, &store_err);
            l.reset();
        } else if (!executeUnit(config_, u.index, cache_, &u,
                                &errors[i], &store_err)) {
            // The unit did not load in phase 1; this reports why.
            failed.store(true);
            return;
        }
        errors[i] = store_err;
        if (u.source == UnitSource::Executed)
            executed.fetch_add(1);
    });
    for (const std::string &e : errors) {
        if (!e.empty()) {
            result.error = e;
            break;
        }
    }

    result.aborted = abort_after_units >= 0 && !result.complete() &&
                     result.error.empty();

    finalize(result);

    span.arg("units",
             static_cast<std::int64_t>(result.units.size()));
    span.arg("executed",
             static_cast<std::int64_t>(result.metrics.counter(
                 obs::Counter::CampaignCacheMisses)));
    return result;
}

Campaign::Status
Campaign::status()
{
    Status st;
    st.total_units = config_.units.size();
    st.cache_entries = cache_.sizeOnDisk();
    for (const UnitResult &u : probeCache().units)
        if (u.source != UnitSource::Pending)
            st.completed_units += 1;
    return st;
}

} // namespace portend::campaign
