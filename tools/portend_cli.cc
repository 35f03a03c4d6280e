/**
 * @file
 * `portend` command-line driver: runs the full Fig. 2 pipeline
 * (record + detect, then multi-path multi-schedule classification)
 * over any workload registered in the benchmark suite, and renders
 * the verdicts either as the paper's Fig. 6 debugging-aid report or
 * as JSON for downstream tooling.
 *
 * The help text below is kept in sync with docs/CLI.md.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "serve/client.h"
#include "serve/server.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "portend/classify.h"
#include "portend/portend.h"
#include "portend/render.h"
#include "rt/interpreter.h"
#include "rt/vmstate.h"
#include "support/observe.h"
#include "support/parallel.h"
#include "support/str.h"
#include "support/trace.h"
#include "workloads/registry.h"

namespace {

using namespace portend;

// Keep this text byte-identical with the Usage section of
// docs/CLI.md.
const char kUsage[] =
    R"(portend - tell data races apart from data race bugs (ASPLOS 2012)

Usage:
  portend list                          list registered workloads
  portend run <workload> [options]      detect and classify every race
  portend run --all [options]           whole registry, one report each
  portend run --file <prog.pil> [options]    same pipeline on a PIL file
  portend classify <workload> [options] classify with an explicit k budget
  portend classify --all [options]      whole registry, compact tables
  portend classify --file <prog.pil> [options]   compact table for a file
  portend campaign run <dir> [options]  persistent classification campaign
                                        over the whole registry: verdicts
                                        are cached under <dir> by a content
                                        signature taken before detection,
                                        so a killed campaign resumes where
                                        it left off and a warm re-run costs
                                        one cache probe per unit
  portend campaign resume <dir>         continue a campaign exactly as
                                        configured (all analysis flags
                                        come from the stored manifest)
  portend campaign status <dir>         report completed/total units
                                        (exit 0 when complete, 3 when
                                        work remains)
  portend serve <dir> [serve options]   run the sharded triage server:
                                        campaign submissions arrive over
                                        a socket and fan out to forked
                                        worker processes that share one
                                        on-disk verdict cache under <dir>;
                                        a SIGKILLed worker's units are
                                        re-dispatched, so merged verdicts
                                        stay byte-identical to a
                                        single-process `campaign run`
  portend submit [analysis options]     submit the full registry with the
                                        given analysis flags as a campaign
                                        to a running server and print the
                                        merged verdicts; with --status,
                                        --ping, or --shutdown, talk to the
                                        server instead of submitting
  portend fuzz [options]                generate racy PIL programs, cross-
                                        check detectors and classifier,
                                        minimize and store reproducers
  portend corpus run <dir>              replay a reproducer corpus
  portend --help                        print this help

Workloads:
  pbzip2  ctrace  memcached  sqlite  ocean  fmm  bbuf  avv  dcl  dbm  rw
  input-sensitive extensions (classify with --sym-input): ibuf  iguard
  (run `portend list` for the Table 1 metadata of each)

Options:
  --k <N>              path x schedule witness budget: sets Mp = N,
                       Ma = 2 when N >= 5 (else 1), and enables
                       multi-path at N > 1, multi-schedule at N >= 5
  --mp <N>             primary paths explored (Mp, default 5)
  --ma <N>             alternate-schedule budget per primary (Ma,
                       default 2): distinct post-race interleavings.
                       Stage 3 runs Ma seeded samples, then
                       enumerates bounded-preemption interleavings,
                       pruning Mazurkiewicz-equivalent ones, until
                       Ma distinct schedules were witnessed
  --jobs <N>           worker threads for classification, batch mode,
                       and fuzzing (default: one per hardware
                       thread); results are identical for every N
  --detector <name>    hb | hb-nomutex | lockset (default hb)
  --class <name>       only report races of this class (paper
                       spelling, e.g. "spec violated")
  --sym-input <name>[=lo..hi]
                       make the named program input symbolic during
                       multi-path analysis (repeatable). Only
                       matching inputs fork paths; a decisive
                       verdict records a solver-concretized witness
                       value per symbolic input, and an explicit
                       lo..hi overrides the input's declared domain
  --no-multi-path      disable multi-path analysis (stage 2)
  --no-multi-schedule  disable multi-schedule analysis (stage 3)
  --no-adhoc           disable ad-hoc synchronization detection
  --json               emit a JSON report instead of the Fig. 6 text

Observability options (run, classify, campaign, fuzz, corpus run, serve):
  --trace-out <file>   write a Chrome trace-event JSON timeline of
                       the run: replay, ladder-fork, DPOR-candidate,
                       sym-path-fork, and solver spans with nested
                       parents per thread (open in chrome://tracing
                       or Perfetto)
  --metrics-out <file> write the merged metrics-registry JSON
                       (portend-metrics-v1). Counters, gauges, and
                       histograms only — no timing, no worker
                       counts — so the bytes are identical across
                       --jobs values and across runs

Campaign options (portend campaign run/resume):
  --abort-after <N>    stop claiming new units once N have been
                       executed and stored by this invocation
                       (crash simulation for kill-and-resume
                       testing); exits with code 3 while work
                       remains

Serve options (portend serve):
  --socket <path>      listen on this Unix-domain socket (required)
  --workers <N>        worker processes to pre-fork (default 2)
  --unit-timeout <S>   SIGKILL a worker stuck on one unit for S
                       seconds (default: no timeout)
  --kill-after <N>     fault injection: SIGKILL one busy worker once
                       N units have completed (crash-recovery tests)

Submit options (portend submit):
  --socket <path>      the server's Unix-domain socket (required);
                       the analysis options above travel in the
                       submitted manifest; --jobs and the
                       observability options are refused, since
                       the server runs the units
  --status | --ping | --shutdown query or stop the server instead of
                       submitting a campaign; an action takes no
                       other option

Fuzzing options (portend fuzz):
  --budget <N>         programs to generate (default 200); with a
                       fixed --fuzz-seed the campaign is
                       deterministic: summary and corpus bytes are
                       byte-identical on every run and --jobs value
  --seconds <S>        wall-clock box instead of --budget (program
                       count then depends on the host)
  --fuzz-seed <N>      program-generation seed (default 1)
  --corpus <dir>       write minimized reproducers here (replay them
                       with `portend corpus run <dir>`)

Race classes (paper Fig. 1):
  spec violated        an ordering crashes, deadlocks, or hangs
  output differs       orderings can produce different program output
  k-witness harmless   k path x schedule witnesses saw equal output
  single ordering      only one ordering is possible (ad-hoc sync)
)";

/**
 * The two observability exports. Every subcommand parser
 * (run/classify, campaign, fuzz, corpus, serve) consumes these
 * through the one parseObsFlag helper below.
 */
struct ObsFlags
{
    std::string trace_out;   ///< --trace-out file ("" = off)
    std::string metrics_out; ///< --metrics-out file ("" = off)
};

struct CliOptions
{
    core::PortendOptions opts;
    bool json = false;
    int k = 0; ///< 0 = not given
    std::optional<core::RaceClass> only_class; ///< --class filter
    ObsFlags obs; ///< shared observability flags
};

// ---------------------------------------------------------------------------
// Observability sinks. One set per process: installed from the CLI
// flags before the pipeline runs, drained into files afterwards.
// ---------------------------------------------------------------------------

obs::Collector g_collector;
std::optional<obs::Tracer> g_tracer;

/** Install the process-wide sinks requested by the flags. */
void
installObsSinks(const ObsFlags &flags)
{
    if (!flags.trace_out.empty()) {
        g_tracer.emplace();
        obs::setTracer(&*g_tracer);
    }
    if (!flags.metrics_out.empty())
        obs::setCollector(&g_collector);
}

/**
 * Write the observability outputs. `pipeline` carries the shards the
 * pipelines threaded through their result structs (merged in registry
 * order by the caller); the collector contributes everything bumped
 * globally (interpreter runs, solver queries, path forks, ...).
 * Returns 0, or 1 if a file could not be written.
 */
int
writeObsOutputs(const ObsFlags &flags, const obs::MetricsShard &pipeline)
{
    int rc = 0;
    if (!flags.metrics_out.empty()) {
        obs::MetricsShard total = pipeline;
        g_collector.drainInto(total);
        std::ofstream f(flags.metrics_out, std::ios::binary);
        if (f)
            f << obs::metricsJson(total);
        if (!f) {
            std::fprintf(stderr, "portend: cannot write %s\n",
                         flags.metrics_out.c_str());
            rc = 1;
        }
    }
    if (!flags.trace_out.empty()) {
        std::string err;
        if (!g_tracer->writeFile(flags.trace_out, &err)) {
            std::fprintf(stderr, "portend: %s\n", err.c_str());
            rc = 1;
        }
    }
    return rc;
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "portend: %s\n(try `portend --help`)\n",
                 msg.c_str());
    std::exit(2);
}

std::int64_t
parseInt(const char *flag, const char *value)
{
    if (!value)
        usageError(std::string(flag) + " needs a value");
    std::int64_t v = 0;
    // parseI64 takes an optional '-' and digits in the 64-bit range,
    // so an overflowing value like --ma 99999999999999999999, or one
    // with a blank or a '+', is an error here instead of a number.
    if (!parseI64(value, &v))
        usageError(std::string(flag) +
                   ": not a number in the 64-bit range: " + value);
    return v;
}

/** Parse a count/budget flag into an int in [min_value, INT_MAX]. */
int
parseCount(const char *flag, const char *value, int min_value)
{
    const std::int64_t v = parseInt(flag, value);
    if (v < min_value ||
        v > std::numeric_limits<int>::max())
        usageError(std::string(flag) + " must be between " +
                   std::to_string(min_value) + " and " +
                   std::to_string(std::numeric_limits<int>::max()));
    return static_cast<int>(v);
}

/** Parse a seed flag: any non-negative 64-bit value. */
std::uint64_t
parseSeed(const char *flag, const char *value)
{
    const std::int64_t v = parseInt(flag, value);
    if (v < 0)
        usageError(std::string(flag) + " must be >= 0");
    return static_cast<std::uint64_t>(v);
}

/**
 * The value of path flag @p flag (a file, directory or socket path;
 * @p what names which in the message). A missing value, or one that
 * starts with `-`, is a usage error: a forgotten path must never
 * take the next flag as its name.
 */
const char *
pathValue(const char *flag, const char *value, const char *what)
{
    if (!value || value[0] == '-')
        usageError(std::string(flag) + " needs " + what);
    return value;
}

/**
 * Consume the shared observability flag at argv[i], if it is one:
 * --trace-out <file> or --metrics-out <file>. Returns true (with
 * @p i advanced past the value) when the flag was consumed; false
 * means "not ours", so the caller's parser keeps going and
 * unknown-option errors stay per-command.
 */
bool
parseObsFlag(int argc, char **argv, int &i, ObsFlags *out)
{
    const std::string a = argv[i];
    const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--trace-out") {
        out->trace_out = pathValue("--trace-out", next, "a file path");
        ++i;
        return true;
    }
    if (a == "--metrics-out") {
        out->metrics_out =
            pathValue("--metrics-out", next, "a file path");
        ++i;
        return true;
    }
    return false;
}

/** Parse a --sym-input value: `name` or `name=lo..hi`. */
rt::SymInputSpec
parseSymInput(const char *value)
{
    if (!value)
        usageError("--sym-input needs a value");
    std::string v = value;
    rt::SymInputSpec s;
    std::size_t eq = v.find('=');
    if (eq == std::string::npos) {
        s.name = v;
    } else {
        s.name = v.substr(0, eq);
        std::string range = v.substr(eq + 1);
        std::size_t dots = range.find("..");
        if (dots == std::string::npos)
            usageError("--sym-input range must be lo..hi: " + v);
        const std::string lo = range.substr(0, dots);
        const std::string hi = range.substr(dots + 2);
        s.has_range = true;
        s.lo = parseInt("--sym-input", lo.c_str());
        s.hi = parseInt("--sym-input", hi.c_str());
        if (s.lo > s.hi)
            usageError("--sym-input: empty range: " + v);
    }
    if (s.name.empty())
        usageError("--sym-input needs an input name");
    return s;
}

/** Parse the shared option tail of `run` / `classify`. */
CliOptions
parseOptions(int argc, char **argv, int start)
{
    CliOptions cli;
    // The CLI defaults to one classification worker per hardware
    // thread (the library default stays sequential for embedders).
    cli.opts.jobs = 0;
    for (int i = start; i < argc; ++i) {
        if (parseObsFlag(argc, argv, i, &cli.obs))
            continue;
        std::string a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--json") {
            cli.json = true;
        } else if (a == "--no-multi-path") {
            cli.opts.multi_path = false;
        } else if (a == "--no-multi-schedule") {
            cli.opts.multi_schedule = false;
        } else if (a == "--no-adhoc") {
            cli.opts.adhoc_detection = false;
        } else if (a == "--k") {
            cli.k = parseCount("--k", next, 1);
            ++i;
        } else if (a == "--mp") {
            cli.opts.mp = parseCount("--mp", next, 1);
            ++i;
        } else if (a == "--ma") {
            cli.opts.ma = parseCount("--ma", next, 1);
            ++i;
        } else if (a == "--sym-input") {
            cli.opts.sym_inputs.push_back(parseSymInput(next));
            ++i;
        } else if (a == "--jobs") {
            cli.opts.jobs = parseCount("--jobs", next, 1);
            ++i;
        } else if (a == "--class") {
            if (!next)
                usageError("--class needs a value");
            cli.only_class = core::raceClassFromName(next);
            if (!cli.only_class)
                usageError("unknown race class: " + std::string(next) +
                           " (paper spelling, e.g. \"spec violated\")");
            ++i;
        } else if (a == "--detector") {
            if (!next)
                usageError("--detector needs a value");
            std::optional<core::DetectorKind> d =
                core::detectorFromName(next);
            if (!d)
                usageError("unknown detector: " + std::string(next));
            cli.opts.detector = *d;
            ++i;
        } else {
            usageError("unknown option: " + a);
        }
    }
    // The Fig. 10 dial: k maps onto Mp with Ma following.
    if (cli.k > 0) {
        cli.opts.mp = cli.k;
        cli.opts.ma = cli.k >= 5 ? 2 : 1;
        cli.opts.multi_path = cli.k > 1;
        cli.opts.multi_schedule = cli.k >= 5;
    }
    return cli;
}

/** The library RenderMode equivalent of the parsed flags. */
core::RenderMode
renderModeOf(const CliOptions &cli, bool classify_mode)
{
    core::RenderMode m;
    m.json = cli.json;
    m.classify_mode = classify_mode;
    m.only_class = cli.only_class;
    return m;
}

int
cmdList()
{
    std::printf("%-10s %-8s %8s %8s %8s\n", "name", "lang", "loc",
                "threads", "races");
    std::vector<std::string> names = workloads::workloadNames();
    for (const auto &n : workloads::extensionWorkloadNames())
        names.push_back(n);
    for (const std::string &name : names) {
        workloads::Workload w = workloads::buildWorkload(name);
        std::printf("%-10s %-8s %8d %8d %8zu\n", name.c_str(),
                    w.language.c_str(), w.paper_loc, w.forked_threads,
                    w.expected.size());
    }
    return 0;
}

/**
 * Usage error for a --sym-input name that no Input instruction of
 * @p prog carries: it would select nothing, so the run would be the
 * plain analysis. The message names the inputs @p prog does read.
 */
void
refuseUnreadInputs(const ir::Program &prog,
                   const std::vector<rt::SymInputSpec> &specs)
{
    std::set<std::string> read;
    for (const ir::Function &f : prog.functions)
        for (const ir::BasicBlock &b : f.blocks)
            for (const ir::Inst &in : b.insts)
                if (in.op == ir::Op::Input)
                    read.insert(in.text);
    for (const rt::SymInputSpec &s : specs) {
        if (read.count(s.name))
            continue;
        std::string names;
        for (const std::string &n : read)
            names += (names.empty() ? "" : ", ") + n;
        usageError("--sym-input: " + prog.name + " reads no input named " +
                   s.name + " (it reads: " +
                   (names.empty() ? "none" : names) + ")");
    }
}

/**
 * `run|classify <w>` and `--file <path>`: the pipeline over one
 * unit. A unit that cannot be loaded, or a --sym-input name it never
 * reads, is a usage error.
 */
int
cmdRun(const campaign::UnitSpec &unit, bool classify_mode,
       CliOptions cli)
{
    installObsSinks(cli.obs);
    workloads::Workload w;
    std::string err;
    if (!campaign::loadUnit(unit, &w, &err))
        usageError(err);
    refuseUnreadInputs(w.program, cli.opts.sym_inputs);
    // The workload's semantic predicates (e.g. fmm timestamps).
    cli.opts.semantic_predicates = w.semantic_predicates;
    core::PortendResult res = core::Portend(w.program, cli.opts).run();
    std::fputs(core::renderPipelineReport(
                   w.name, w.program, res, cli.opts.mp, cli.opts.ma,
                   renderModeOf(cli, classify_mode))
                   .c_str(),
               stdout);
    return writeObsOutputs(cli.obs, res.metrics);
}

/** The campaign configuration the parsed flags describe. */
campaign::CampaignConfig
campaignConfigOf(const CliOptions &cli, bool classify_mode)
{
    campaign::CampaignConfig config;
    config.analysis = cli.opts;
    config.render = renderModeOf(cli, classify_mode);
    config.units = campaign::registryUnits();
    return config;
}

/**
 * Batch mode over the full registry — a thin wrapper over the
 * campaign engine since the campaign refactor: an *ephemeral*
 * campaign (no directory, so no persistent cache)
 * whose unit fan-out, in-order merge, and rendered bytes are exactly
 * the engine's. `portend campaign run <dir>` is the same call with a
 * directory attached.
 */
int
cmdBatch(bool classify_mode, CliOptions cli)
{
    installObsSinks(cli.obs);
    campaign::Campaign engine(campaignConfigOf(cli, classify_mode));
    campaign::CampaignResult res = engine.run(-1, cli.opts.jobs);
    const int obs_rc = writeObsOutputs(cli.obs, res.metrics);
    if (!res.error.empty()) {
        std::fprintf(stderr, "portend: %s\n", res.error.c_str());
        return 1;
    }
    std::fputs(res.mergedOutput(cli.json).c_str(), stdout);
    return obs_rc;
}

/** `portend campaign run|resume|status <dir>`. */
int
cmdCampaign(int argc, char **argv)
{
    if (argc < 4 || argv[3][0] == '-')
        usageError("usage: portend campaign run|resume|status <dir>");
    const std::string sub = argv[2];
    const std::string dir = argv[3];

    if (sub == "status") {
        if (argc > 4)
            usageError("campaign status takes only <dir>");
        std::string err;
        std::optional<campaign::Campaign> c =
            campaign::Campaign::open(dir, &err);
        if (!c) {
            std::fprintf(stderr, "portend: %s\n", err.c_str());
            return 2;
        }
        campaign::Campaign::Status st = c->status();
        std::printf("campaign: %s\n", dir.c_str());
        std::printf("  units: %zu/%zu complete\n", st.completed_units,
                    st.total_units);
        std::printf("  cache entries: %zu\n", st.cache_entries);
        return st.completed_units == st.total_units ? 0 : 3;
    }
    if (sub != "run" && sub != "resume")
        usageError("unknown campaign subcommand: " + sub);

    // --abort-after is campaign-only, so it is peeled off before the
    // remaining flags reach the shared parsers.
    int abort_after = -1;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--abort-after") == 0) {
            abort_after = parseCount(
                "--abort-after",
                i + 1 < argc ? argv[i + 1] : nullptr, 0);
            ++i;
        } else {
            rest.push_back(argv[i]);
        }
    }
    const int rest_argc = static_cast<int>(rest.size());

    std::string err;
    std::optional<campaign::Campaign> c;
    CliOptions cli;
    if (sub == "run") {
        cli = parseOptions(rest_argc, rest.data(), 1);
        c = campaign::Campaign::create(
            dir, campaignConfigOf(cli, true), &err);
    } else {
        // Resume takes no analysis flags: the manifest is the only
        // source of configuration, so a resumed campaign can never
        // drift from the run that started it.
        cli.opts.jobs = 0;
        for (int i = 1; i < rest_argc; ++i) {
            if (parseObsFlag(rest_argc, rest.data(), i, &cli.obs))
                continue;
            if (std::strcmp(rest[i], "--jobs") == 0) {
                cli.opts.jobs = parseCount(
                    "--jobs",
                    i + 1 < rest_argc ? rest[i + 1] : nullptr, 1);
                ++i;
            } else {
                usageError("unknown campaign resume option: " +
                           std::string(rest[i]));
            }
        }
        c = campaign::Campaign::open(dir, &err);
    }
    if (!c) {
        std::fprintf(stderr, "portend: %s\n", err.c_str());
        return 2;
    }

    installObsSinks(cli.obs);
    campaign::CampaignResult res = c->run(abort_after, cli.opts.jobs);
    const int obs_rc = writeObsOutputs(cli.obs, res.metrics);
    if (!res.error.empty()) {
        std::fprintf(stderr, "portend: %s\n", res.error.c_str());
        return 1;
    }
    std::fprintf(
        stderr, "campaign: %zu unit(s): %llu executed, %llu cache hit(s)\n",
        res.units.size(),
        static_cast<unsigned long long>(
            res.metrics.counter(obs::Counter::CampaignCacheMisses)),
        static_cast<unsigned long long>(
            res.metrics.counter(obs::Counter::CampaignCacheHits)));
    if (res.aborted) {
        std::fprintf(stderr,
                     "campaign: aborted by --abort-after; resume "
                     "with `portend campaign resume %s`\n",
                     dir.c_str());
        return 3;
    }
    std::fputs(res.mergedOutput(c->config().render.json).c_str(),
               stdout);
    return obs_rc;
}

/**
 * `portend fuzz`: run a campaign. The deterministic summary goes to
 * stdout (acceptance diffs it byte-for-byte between runs); the
 * wall-clock line goes to stderr so timing never breaks determinism.
 */
int
cmdFuzz(int argc, char **argv)
{
    fuzz::FuzzOptions fo;
    fo.jobs = 0; // CLI default: one worker per hardware thread
    bool budget_given = false;
    ObsFlags obs;
    for (int i = 2; i < argc; ++i) {
        if (parseObsFlag(argc, argv, i, &obs))
            continue;
        std::string a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--budget") {
            fo.budget = parseCount("--budget", next, 1);
            budget_given = true;
            ++i;
        } else if (a == "--seconds") {
            fo.seconds = static_cast<double>(
                parseCount("--seconds", next, 1));
            ++i;
        } else if (a == "--fuzz-seed") {
            fo.fuzz_seed = parseSeed("--fuzz-seed", next);
            ++i;
        } else if (a == "--jobs") {
            fo.jobs = parseCount("--jobs", next, 1);
            ++i;
        } else if (a == "--corpus") {
            fo.corpus_dir = pathValue("--corpus", next, "a directory");
            ++i;
        } else {
            usageError("unknown fuzz option: " + a);
        }
    }
    if (budget_given && fo.seconds > 0)
        usageError("--budget and --seconds are mutually exclusive");

    installObsSinks(obs);
    fuzz::FuzzResult res = fuzz::runFuzz(fo);
    std::fputs(res.summaryText().c_str(), stdout);
    const int obs_rc = writeObsOutputs(obs, res.metrics);
    std::fprintf(stderr, "wall-clock: %.2fs (%d jobs)\n", res.seconds,
                 resolveJobs(fo.jobs));
    if (obs_rc != 0)
        return obs_rc;
    return res.clean() ? 0 : 1;
}

/** `portend corpus run <dir>`: replay a reproducer corpus. */
int
cmdCorpusRun(const std::string &dir, const ObsFlags &obs_flags)
{
    installObsSinks(obs_flags);
    fuzz::CorpusRunResult res = fuzz::runCorpus(dir);
    if (res.total == 0) {
        std::fprintf(stderr,
                     "portend: no corpus entries under %s\n",
                     dir.c_str());
        return 2;
    }
    for (const fuzz::ReplayOutcome &o : res.outcomes) {
        if (o.ok)
            std::printf("PASS %s\n", o.name.c_str());
        else
            std::printf("FAIL %s: %s\n", o.name.c_str(),
                        o.detail.c_str());
    }
    std::printf("corpus: %d/%d green\n", res.passed, res.total);
    obs::MetricsShard corpus_shard;
    corpus_shard.add(obs::Counter::CorpusEntries,
                     static_cast<std::uint64_t>(res.total));
    corpus_shard.add(obs::Counter::CorpusPassed,
                     static_cast<std::uint64_t>(res.passed));
    corpus_shard.add(obs::Counter::CorpusFailed,
                     static_cast<std::uint64_t>(res.total - res.passed));
    corpus_shard.merge(res.metrics);
    const int obs_rc = writeObsOutputs(obs_flags, corpus_shard);
    if (obs_rc != 0)
        return obs_rc;
    return res.allGreen() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve / submit: the multi-process sharded triage server
// ---------------------------------------------------------------------------

serve::Server *g_serve_server = nullptr;

extern "C" void
serveSignalHandler(int)
{
    if (g_serve_server)
        g_serve_server->stop();
}

int
cmdServe(int argc, char **argv)
{
    if (argc < 3 || argv[2][0] == '-')
        usageError("serve needs a state directory");
    serve::ServeOptions so;
    so.dir = argv[2];
    ObsFlags obs_flags;
    for (int i = 3; i < argc; ++i) {
        if (parseObsFlag(argc, argv, i, &obs_flags))
            continue;
        std::string a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--workers") {
            so.workers = parseCount("--workers", next, 1);
            ++i;
        } else if (a == "--socket") {
            so.socket_path = pathValue("--socket", next, "a path");
            ++i;
        } else if (a == "--unit-timeout") {
            so.unit_timeout_seconds = static_cast<double>(
                parseCount("--unit-timeout", next, 1));
            ++i;
        } else if (a == "--kill-after") {
            so.kill_worker_after =
                parseCount("--kill-after", next, 0);
            ++i;
        } else {
            usageError("unknown serve option: " + a);
        }
    }
    if (so.socket_path.empty())
        usageError("serve needs --socket <path>");

    installObsSinks(obs_flags);
    serve::Server server(so);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "portend: %s\n", err.c_str());
        return 1;
    }
    // Announce the endpoint on stdout so scripts (and the CI smoke)
    // can scrape it, then serve until a shutdown request or signal.
    std::printf("serving on %s\n", so.socket_path.c_str());
    std::fflush(stdout);
    g_serve_server = &server;
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);
    const int rc = server.loop();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_serve_server = nullptr;
    const int obs_rc =
        writeObsOutputs(obs_flags, obs::MetricsShard{});
    return rc != 0 ? rc : obs_rc;
}

int
cmdSubmit(int argc, char **argv)
{
    serve::Endpoint ep;
    std::string action; ///< --status, --shutdown, --ping; "" = submit
    // Peel the endpoint and action flags; everything else is a
    // standard analysis flag and goes into the submitted manifest.
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--socket") {
            ep.socket_path = pathValue("--socket", next, "a path");
            ++i;
        } else if (a == "--jobs" || a == "--metrics-out" ||
                   a == "--trace-out") {
            // The server runs the units: its own --workers and
            // observability flags apply, so these would be dropped.
            usageError("submit does not take " + a +
                       " (the server's flags apply)");
        } else if (a == "--status" || a == "--shutdown" ||
                   a == "--ping") {
            if (!action.empty())
                usageError(action + " and " + a +
                           " are mutually exclusive");
            action = a;
        } else {
            rest.push_back(argv[i]);
        }
    }
    // An action sends no manifest, so an analysis flag beside it
    // would be dropped without a word.
    if (!action.empty() && rest.size() > 1)
        usageError(action + " takes no other option: " +
                   std::string(rest[1]));
    if (ep.socket_path.empty())
        usageError("submit needs --socket <path>");

    std::string err;
    if (action == "--status") {
        std::string json;
        if (!serve::requestStatus(ep, &json, &err)) {
            std::fprintf(stderr, "portend: %s\n", err.c_str());
            return 1;
        }
        std::printf("%s\n", json.c_str());
        return 0;
    }
    if (action == "--shutdown") {
        if (!serve::requestShutdown(ep, &err)) {
            std::fprintf(stderr, "portend: %s\n", err.c_str());
            return 1;
        }
        return 0;
    }
    if (action == "--ping") {
        if (!serve::ping(ep, &err)) {
            std::fprintf(stderr, "portend: %s\n", err.c_str());
            return 1;
        }
        std::printf("pong\n");
        return 0;
    }

    CliOptions cli = parseOptions(static_cast<int>(rest.size()),
                                  rest.data(), 1);
    const std::string manifest =
        campaign::manifestText(campaignConfigOf(cli, true));
    std::string out;
    if (!serve::submit(ep, manifest, &out, &err)) {
        std::fprintf(stderr, "portend: %s\n", err.c_str());
        return 1;
    }
    std::fputs(out.c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        std::fputs(kUsage, stdout);
        return 0;
    }
    if (cmd == "list") {
        if (argc > 2)
            usageError("list takes no arguments");
        return cmdList();
    }
    if (cmd == "run" || cmd == "classify") {
        const bool classify_mode = cmd == "classify";
        if (argc >= 3 && std::strcmp(argv[2], "--all") == 0) {
            CliOptions cli = parseOptions(argc, argv, 3);
            return cmdBatch(classify_mode, cli);
        }
        if (argc >= 3 && std::strcmp(argv[2], "--file") == 0) {
            if (argc < 4 || argv[3][0] == '-')
                usageError("--file needs a path to a .pil program");
            CliOptions cli = parseOptions(argc, argv, 4);
            return cmdRun({"file", argv[3]}, classify_mode, cli);
        }
        if (argc < 3 || argv[2][0] == '-')
            usageError(cmd +
                       " needs a workload name (or --all, --file)");
        CliOptions cli = parseOptions(argc, argv, 3);
        return cmdRun({"workload", argv[2]}, classify_mode, cli);
    }
    if (cmd == "campaign")
        return cmdCampaign(argc, argv);
    if (cmd == "serve")
        return cmdServe(argc, argv);
    if (cmd == "submit")
        return cmdSubmit(argc, argv);
    if (cmd == "fuzz")
        return cmdFuzz(argc, argv);
    if (cmd == "corpus") {
        if (argc < 4 || std::strcmp(argv[2], "run") != 0 ||
            argv[3][0] == '-')
            usageError("usage: portend corpus run <dir>");
        ObsFlags obs_flags;
        for (int i = 4; i < argc; ++i)
            if (!parseObsFlag(argc, argv, i, &obs_flags))
                usageError("unknown corpus option: " +
                           std::string(argv[i]));
        return cmdCorpusRun(argv[3], obs_flags);
    }
    usageError("unknown command: " + cmd);
}
