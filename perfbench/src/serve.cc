/**
 * @file
 * The `serve` workload: a serve::Server with two pre-forked workers on
 * a Unix socket, and one closed-loop client that sends campaign
 * manifests through serve::submit and waits for each reply. Every
 * manifest holds the 11 registry units (`portend submit --json --seed
 * <s>`); detection seeds are drawn from the run seed, and every fourth
 * submission repeats an earlier manifest byte for byte, so the
 * journal-replay read path runs beside the cold write path (classify,
 * cache store, fsync'd journal record).
 *
 * CPU is counted for every process that does the work: the client, the
 * server and its workers, each read through its process CPU clock
 * (clock_getcpuclockid), so one submission's CPU is the sum of their
 * clocks' advance over its round trip. Wall-clock round trips follow
 * the other tenants' load on a shared host far more than CPU does, so
 * they are per-layer figures only.
 */

#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include <sched.h>
#include <signal.h>
#include <sys/mount.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "campaign/campaign.h"
#include "measure.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/subproc.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using namespace portend;
namespace fs = std::filesystem;

constexpr int kWorkers = 2;

/** Server set-ups timed per run (setup_s is their median); the last
 *  one is the server the timed region uses. */
constexpr int kSetupReps = 31;

/** Every kRepeatEvery-th submission repeats an earlier manifest. */
constexpr std::size_t kRepeatEvery = 4;

/** Leading submissions covered by the work fingerprint. */
constexpr std::size_t kFingerprintSubmissions = 16;

/**
 * Submissions per requested second. The timed region sends a fixed
 * number of submissions rather than stopping on the clock: the server
 * and its workers keep every submission's state, so their memory
 * grows with the count, and a fixed count keeps peak_rss_mb (and the
 * mix of cold and repeated manifests) the same in every run.
 */
constexpr std::size_t kSubmissionsPerSecond = 45;

/** Directory holding every serve state, socket and reference run. */
const char kServeRoot[] = "serve";

/**
 * Put kServeRoot on a private memory-backed filesystem: a tmpfs
 * mounted in a mount namespace of this process alone, so the fsync'd
 * journal does not wait on a shared disk (whose latency swings by a
 * third from run to run) and nothing outside the working directory
 * is touched. The namespace, and the mount with it, ends with the
 * process. Returns "" on success, else why the state stays on the
 * working directory's filesystem.
 */
std::string
memoryBackedRoot()
{
    std::error_code ec;
    fs::create_directories(kServeRoot, ec);
    if (unshare(CLONE_NEWNS) != 0)
        return std::string("unshare: ") + std::strerror(errno);
    if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0 ||
        mount("tmpfs", kServeRoot, "tmpfs", 0, "size=512m,mode=0700") != 0)
        return std::string("mount: ") + std::strerror(errno);
    return "";
}

/** The submission sequence: a pure function of the run seed. */
class Plan
{
  public:
    explicit Plan(std::uint64_t seed) : rng_(hashCombine(seed, 0x5e7e))
    {
        config_.render.json = true;
        config_.render.classify_mode = true;
        config_.units = campaign::registryUnits();
    }

    /** Draw the next submission; returns its manifest index. */
    std::size_t
    next()
    {
        const std::size_t pos = sequence_.size();
        std::size_t m = 0;
        if (pos % kRepeatEvery == kRepeatEvery - 1) {
            m = sequence_[rng_.below(pos)];
        } else {
            std::uint64_t seed = 0;
            do {
                seed = 1 + rng_.below(std::uint64_t{1} << 31);
            } while (!seeds_.insert(seed).second);
            config_.analysis.detection_seed = seed;
            manifests_.push_back(campaign::manifestText(config_));
            m = manifests_.size() - 1;
        }
        sequence_.push_back(m);
        return m;
    }

    bool isRepeat(std::size_t pos) const
    {
        return pos % kRepeatEvery == kRepeatEvery - 1;
    }

    const std::string &manifest(std::size_t m) const
    {
        return manifests_[m];
    }

    std::size_t distinct() const { return manifests_.size(); }

  private:
    Rng rng_;
    campaign::CampaignConfig config_;
    std::set<std::uint64_t> seeds_;
    std::vector<std::string> manifests_;
    std::vector<std::size_t> sequence_;
};

struct Submission
{
    std::size_t manifest = 0;
    bool repeat = false;
    bool ok = false;
    double cpu_ms = 0.0;  ///< CPU of client, server and workers
    double wall_ms = 0.0; ///< round trip
    std::string bytes;
};

/** A running server child, its endpoint, and the CPU clocks of the
 *  server and its pre-forked workers. */
struct ServerProc
{
    sub::Child child;
    serve::Endpoint ep;
    std::vector<clockid_t> clocks;
};

/** Processes whose parent is @p parent, from /proc. */
std::vector<pid_t>
childrenOf(long parent)
{
    std::vector<pid_t> out;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator("/proc", ec)) {
        const std::string name = e.path().filename().string();
        if (name.find_first_not_of("0123456789") != std::string::npos)
            continue;
        std::ifstream f(e.path() / "stat");
        std::string stat;
        std::getline(f, stat);
        // "pid (comm) state ppid ...": comm may hold spaces and parens.
        const std::size_t close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream fields(stat.substr(close + 1));
        char state = 0;
        long ppid = 0;
        if (fields >> state >> ppid && ppid == parent)
            out.push_back(static_cast<pid_t>(std::stol(name)));
    }
    return out;
}

/** CPU of the server and its workers so far; false when a clock can
 *  no longer be read (a worker exited). */
bool
serverCpuNs(const ServerProc &p, std::uint64_t &ns)
{
    ns = 0;
    for (clockid_t c : p.clocks) {
        timespec ts{};
        if (clock_gettime(c, &ts) != 0)
            return false;
        ns += static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
              static_cast<std::uint64_t>(ts.tv_nsec);
    }
    return true;
}

std::optional<ServerProc>
startServer(const std::string &dir, std::string *error)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    so.workers = kWorkers;
    fs::create_directories(dir, ec);
    std::optional<sub::Child> child = sub::spawn(
        [so](int) {
            // Die with the benchmark; the workers follow when their
            // channel to the server closes.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            serve::Server s(so);
            std::string e;
            if (!s.start(&e)) {
                std::fprintf(stderr, "server: %s\n", e.c_str());
                return 1;
            }
            return s.loop();
        },
        error);
    if (!child)
        return std::nullopt;
    ServerProc p{*child, {}, {}};
    p.ep.socket_path = so.socket_path;
    // Wait for the socket at a fine grain: the client's own connect
    // retry sleeps 50 ms, which would quantize the set-up time.
    const std::uint64_t t0 = wallNs();
    while (!fs::exists(so.socket_path, ec) && nsToS(wallNs() - t0) < 10.0)
        ::usleep(200);
    if (!serve::ping(p.ep, error)) {
        sub::terminate(p.child);
        return std::nullopt;
    }
    // The workers are forked before the socket is bound, so they all
    // exist once the server answers.
    std::vector<pid_t> pids = childrenOf(p.child.pid);
    pids.push_back(static_cast<pid_t>(p.child.pid));
    for (pid_t pid : pids) {
        clockid_t c{};
        if (clock_getcpuclockid(pid, &c) == 0)
            p.clocks.push_back(c);
    }
    if (p.clocks.size() != kWorkers + 1) {
        *error = "found " + std::to_string(p.clocks.size()) +
                 " server and worker CPU clocks, expected " +
                 std::to_string(kWorkers + 1);
        sub::terminate(p.child);
        return std::nullopt;
    }
    return p;
}

/** Shut the server down and wait until it (and so its workers) exited. */
void
stopServer(ServerProc &p)
{
    serve::requestShutdown(p.ep, nullptr);
    const std::uint64_t t0 = wallNs();
    while (!sub::reap(p.child)) {
        if (nsToS(wallNs() - t0) > 20.0) {
            sub::terminate(p.child, 1.0);
            break;
        }
        ::usleep(1000);
    }
    sub::closeChannel(p.child);
}

/** Integer field @p key of the server's flat status JSON. */
double
statusField(const std::string &json, const std::string &key)
{
    const std::string k = "\"" + key + "\": ";
    const std::size_t at = json.find(k);
    return at == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + at + k.size(), nullptr);
}

/** Journal lines per campaign manifest, and cache entries, on disk. */
struct StateCounts
{
    std::map<std::string, std::size_t> journal_by_manifest;
    std::size_t journal_records = 0;
    std::size_t cache_entries = 0;
};

std::size_t
countLines(const fs::path &p)
{
    std::ifstream f(p, std::ios::binary);
    std::size_t n = 0;
    for (std::string line; std::getline(f, line);)
        n += line.empty() ? 0 : 1;
    return n;
}

StateCounts
scanState(const std::string &state)
{
    StateCounts c;
    std::error_code ec;
    for (const auto &e :
         fs::directory_iterator(fs::path(state) / "campaigns", ec)) {
        std::ifstream mf(e.path() / "manifest", std::ios::binary);
        std::ostringstream os;
        os << mf.rdbuf();
        const std::size_t n = countLines(e.path() / "journal.jsonl");
        c.journal_by_manifest[os.str()] = n;
        c.journal_records += n;
    }
    for (const auto &e : fs::directory_iterator(fs::path(state) / "cache", ec))
        if (e.path().extension() == ".entry")
            c.cache_entries += 1;
    return c;
}

/** The verdicts of each unit object in merged JSON bytes. */
std::vector<std::vector<Verdict>>
unitVerdicts(const std::string &bytes)
{
    std::vector<std::vector<Verdict>> units;
    std::istringstream is(bytes);
    const auto value = [](const std::string &line) {
        const std::size_t a = line.find(": \"");
        const std::size_t b = line.rfind('"');
        return a == std::string::npos || b <= a + 3
                   ? std::string()
                   : line.substr(a + 3, b - a - 3);
    };
    const auto has = [](const std::string &line, const char *key) {
        return line.find(key) != std::string::npos;
    };
    for (std::string line; std::getline(is, line);) {
        if (has(line, "\"workload\": "))
            units.emplace_back();
        else if (units.empty())
            continue;
        else if (has(line, "\"cell\": "))
            units.back().push_back({value(line), "", ""});
        else if (units.back().empty())
            continue;
        else if (has(line, "\"class\": "))
            units.back().back().cls = value(line);
        else if (has(line, "\"violation\": "))
            units.back().back().violation = value(line);
    }
    return units;
}

/** What one server lifetime measured. */
struct Phase
{
    Calibrator setups; ///< CPU ms of every set-up, calibrated
    Calibrator cal;    ///< CPU ms of every submission, calibrated
    std::vector<Submission> subs;
    std::uint64_t cpu_ns = 0;        ///< every process, timed region
    std::uint64_t server_cpu_ns = 0; ///< server and workers only
    std::uint64_t wall_ns = 0;
    double children_rss_mb = 0.0;
    std::string status;
    StateCounts state;
    std::uint64_t units_ok = 0;
};

bool
runPhase(const Options &o, const std::string &dir, Plan &plan,
         SpanLog &log, Report &rep, Phase &ph)
{
    const std::size_t units_per = campaign::registryUnits().size();
    std::optional<ServerProc> server;
    std::string err;
    std::uint64_t srv = 0;
    ph.setups.sample();
    for (int r = 0; r < kSetupReps; ++r) {
        if (server)
            stopServer(*server);
        const std::uint64_t c0 = processCpuNs();
        server = startServer(dir, &err);
        if (server && !serverCpuNs(*server, srv)) {
            stopServer(*server);
            server.reset();
            err = "a worker exited during start-up";
        }
        if (!server) {
            std::fprintf(stderr, "serve: cannot start server: %s\n",
                         err.c_str());
            return false;
        }
        // The server and its workers were forked during this set-up,
        // so their clocks started at zero.
        ph.setups.add(nsToMs(processCpuNs() - c0 + srv));
    }
    ph.setups.sample();

    // Totals exclude the calibration kernel runs between submissions.
    Calibrator &cal = ph.cal;
    cal.sample();
    bool clocks_ok = serverCpuNs(*server, srv);
    const std::uint64_t srv0 = srv;
    const std::uint64_t cpu0 = processCpuNs() - cal.spentCpuNs();
    const std::uint64_t wall0 = wallNs() - cal.spentWallNs();
    const std::size_t count =
        kSubmissionsPerSecond * static_cast<std::size_t>(o.seconds);
    while (ph.subs.size() < count && clocks_ok) {
        Submission s;
        const std::size_t pos = ph.subs.size();
        s.manifest = plan.next();
        s.repeat = plan.isRepeat(pos);
        {
            ScopedSpan span(log, s.repeat ? "serve.submit.repeat"
                                          : "serve.submit.cold",
                            static_cast<std::int64_t>(pos));
            const std::uint64_t before = processCpuNs() + srv;
            const std::uint64_t t0 = wallNs();
            s.ok = serve::submit(server->ep, plan.manifest(s.manifest),
                                 &s.bytes, &err);
            s.wall_ms = nsToMs(wallNs() - t0);
            std::uint64_t now = 0;
            clocks_ok = serverCpuNs(*server, now);
            if (clocks_ok)
                srv = now;
            s.cpu_ms = nsToMs(processCpuNs() + srv - before);
        }
        cal.add(s.cpu_ms);
        rep.attempted += units_per;
        if (s.ok) {
            ph.units_ok += units_per;
        } else {
            rep.failed += units_per;
            rep.fail("submission " + std::to_string(pos) + ": " + err);
        }
        ph.subs.push_back(std::move(s));
    }
    cal.sample();
    if (!clocks_ok)
        rep.fail("a worker exited during the timed region; its CPU is "
                 "not counted");
    ph.server_cpu_ns = srv - srv0;
    ph.cpu_ns = processCpuNs() - cal.spentCpuNs() - cpu0 + ph.server_cpu_ns;
    ph.wall_ns = wallNs() - cal.spentWallNs() - wall0;

    serve::requestStatus(server->ep, &ph.status, &err);
    stopServer(*server);
    // Reaped descendants only: the server, which reaped its workers.
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    ph.children_rss_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
    ph.state = scanState(dir + "/state");
    return true;
}

/**
 * The in-process reference: a persistent campaign::Campaign run of the
 * same manifests in the same order (repeats replay from its journal),
 * one job. Returns the process CPU it used; @p bytes gets each
 * manifest's merged output.
 */
std::uint64_t
runReference(const std::string &dir, const Plan &plan, const Phase &ph,
             std::vector<std::string> &bytes, obs::MetricsShard &metrics,
             Report &rep)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    bytes.assign(plan.distinct(), "");
    const std::uint64_t cpu0 = processCpuNs();
    for (const Submission &s : ph.subs) {
        std::string err;
        std::optional<campaign::CampaignConfig> config =
            campaign::parseManifest(plan.manifest(s.manifest), &err);
        std::optional<campaign::Campaign> c;
        if (config)
            c = campaign::Campaign::create(
                dir + "/campaigns/" + std::to_string(s.manifest),
                std::move(*config), &err, dir + "/cache");
        if (!c) {
            rep.fail("reference campaign: " + err);
            continue;
        }
        campaign::CampaignResult res = c->run(-1, 1);
        if (!res.complete() || !res.error.empty())
            rep.fail("reference campaign incomplete: " + res.error);
        metrics.merge(res.metrics);
        bytes[s.manifest] = res.mergedOutput(true);
    }
    return processCpuNs() - cpu0;
}

/** Checks every submission against the reference bytes and tallies
 *  its verdicts against the registry's ground truth. */
void
checkSubmissions(const Phase &ph, const std::vector<std::string> &ref,
                 const std::vector<workloads::Workload> &suite,
                 Report &rep, std::uint64_t &matched,
                 std::uint64_t &correct, std::uint64_t &races)
{
    for (std::size_t i = 0; i < ph.subs.size(); ++i) {
        const Submission &s = ph.subs[i];
        if (!s.ok)
            continue;
        if (s.bytes == ref[s.manifest])
            matched += 1;
        else
            rep.fail("submission " + std::to_string(i) +
                     ": bytes differ from the in-process campaign");
        const auto units = unitVerdicts(s.bytes);
        for (std::size_t u = 0; u < units.size() && u < suite.size(); ++u)
            tallyTruth(suite[u].expected, units[u],
                       !suite[u].semantic_predicates.empty(), correct,
                       races);
    }
}

/** Hash of the leading submissions' bytes plus their journal records. */
std::string
fingerprintOf(const Phase &ph, const Plan &plan)
{
    std::uint64_t h = kFnvOffset;
    std::set<std::size_t> manifests;
    const std::size_t n = std::min(ph.subs.size(), kFingerprintSubmissions);
    for (std::size_t i = 0; i < n; ++i) {
        h = hashCombine(h, fnv1a(ph.subs[i].bytes));
        manifests.insert(ph.subs[i].manifest);
    }
    std::size_t records = 0;
    for (std::size_t m : manifests) {
        auto it = ph.state.journal_by_manifest.find(plan.manifest(m));
        records += it == ph.state.journal_by_manifest.end() ? 0 : it->second;
    }
    return "verdicts=" + hex64(h) + " submissions=" + std::to_string(n) +
           " campaign.journal_records=" + std::to_string(records);
}

/** Wall-clock round trips of cold (false) or repeated (true)
 *  submissions. */
std::vector<double>
roundTrips(const Phase &ph, bool repeat)
{
    std::vector<double> out;
    for (const Submission &s : ph.subs)
        if (s.repeat == repeat)
            out.push_back(s.wall_ms);
    return out;
}

/** Calibrated units per CPU second of a phase. */
double
perCpuSecond(const Phase &ph)
{
    return ph.cpu_ns ? static_cast<double>(ph.units_ok) / nsToS(ph.cpu_ns) *
                           ph.cal.factor()
                     : 0.0;
}

} // namespace

int
runServe(const Options &o, Report &rep)
{
    const std::string tmpfs_error = memoryBackedRoot();
    const std::string root = std::string(kServeRoot) + "/";
    Plan plan(o.seed);
    SpanLog off(false);
    Phase base;
    if (!runPhase(o, root + "untraced", plan, off, rep, base))
        return 1;

    std::vector<workloads::Workload> suite;
    for (const std::string &name : workloads::workloadNames())
        suite.push_back(workloads::buildWorkload(name));
    std::vector<std::string> ref;
    obs::MetricsShard unused;
    runReference(root + "reference-untraced", plan, base, ref, unused, rep);
    std::uint64_t matched = 0, correct = 0, races = 0;
    checkSubmissions(base, ref, suite, rep, matched, correct, races);

    rep.fingerprint_key = "serve seed " + std::to_string(o.seed);
    rep.fingerprint = fingerprintOf(base, plan);
    if (base.subs.size() < kFingerprintSubmissions)
        rep.fail("fewer than " + std::to_string(kFingerprintSubmissions) +
                 " submissions completed");
    rep.note("serve: " + std::to_string(kWorkers) + " workers, seed " +
             std::to_string(o.seed) + ", " +
             std::to_string(base.subs.size()) + " submissions (" +
             std::to_string(plan.distinct()) +
             " distinct manifests) untraced, state " +
             (tmpfs_error.empty() ? "on a private tmpfs"
                                  : "on disk (" + tmpfs_error + ")"));

    if (!o.trace) {
        EndToEnd e;
        e.units = static_cast<double>(base.units_ok);
        e.attempted = static_cast<double>(rep.attempted);
        e.cpu_s = nsToS(base.cpu_ns);
        e.peak_rss_mb = base.children_rss_mb;
        e.matched_pct = 100.0 * static_cast<double>(matched) /
                        static_cast<double>(base.subs.size());
        e.accuracy_pct = races ? 100.0 * static_cast<double>(correct) /
                                     static_cast<double>(races)
                               : 0.0;
        reportEndToEnd(rep, e, base.setups, base.cal);
        return 0;
    }

    // Traced phase: a fresh server and state directory on the same
    // submission sequence, spans around every submit, then the
    // reference campaign with the collector installed for counts.
    Plan traced_plan(o.seed);
    SpanLog log(true);
    Phase traced;
    if (!runPhase(o, root + "traced", traced_plan, log, rep, traced))
        return 1;
    obs::Collector collector;
    obs::setCollector(&collector);
    obs::MetricsShard counts;
    std::vector<std::string> traced_ref;
    const std::uint64_t ref_cpu = runReference(
        root + "reference-traced", traced_plan, traced, traced_ref, counts,
        rep);
    obs::setCollector(nullptr);
    collector.drainInto(counts);
    checkSubmissions(traced, traced_ref, suite, rep, matched, correct,
                     races);
    rep.note("serve traced: " + std::to_string(traced.subs.size()) +
             " submissions");

    const double t_units = static_cast<double>(traced.units_ok);
    const double wall_s = nsToS(traced.wall_ns);
    reportAbsentLayers(rep, Layers::Serve);
    reportLayerCounts(rep, counts, t_units, true);
    rep.metric("serve.units_per_s", wall_s > 0 ? t_units / wall_s : 0.0,
               "1/s");
    rep.metric("serve.submit_ms.cold.p50", median(roundTrips(traced, false)),
               "ms");
    rep.metric("serve.submit_ms.repeat.p50",
               median(roundTrips(traced, true)), "ms");
    rep.metric("serve.worker_utilization",
               wall_s > 0 ? 100.0 * nsToS(traced.server_cpu_ns) /
                                (kWorkers * wall_s)
                          : 0.0,
               "%");
    const double dispatched = statusField(traced.status, "units_dispatched");
    const double completed = statusField(traced.status, "units_completed");
    rep.metric("serve.units_dispatched", dispatched / t_units, "count");
    rep.metric("serve.units_completed", completed / t_units, "count");
    rep.metric("serve.units_replayed", (t_units - completed) / t_units,
               "count");
    rep.metric("serve.redispatched", (dispatched - completed) / t_units,
               "count");
    rep.metric("serve.worker_deaths",
               statusField(traced.status, "worker_deaths") / t_units,
               "count");
    rep.metric("serve.overhead_cpu_ms",
               1e3 * (nsToS(traced.cpu_ns) - nsToS(ref_cpu)) /
                   (t_units * traced.cal.factor()),
               "ms");
    rep.metric("campaign.journal_records",
               static_cast<double>(traced.state.journal_records) / t_units,
               "count");
    rep.metric("campaign.cache_entries",
               static_cast<double>(traced.state.cache_entries) / t_units,
               "count");
    rep.metric("trace.overhead_pct",
               100.0 * (perCpuSecond(base) / perCpuSecond(traced) - 1.0),
               "%");
    std::string err;
    if (!o.spans_out.empty() && !log.writeJsonl(o.spans_out, &err))
        rep.fail(err);
    return 0;
}

} // namespace perfbench
