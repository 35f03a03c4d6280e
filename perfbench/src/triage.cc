/**
 * @file
 * The `triage` workload: the paper's 11 Table 1 programs, each unit
 * being `portend classify <w> --json` with one classification thread
 * (Portend::detect() then runFrom(), then the CLI's JSON rendering).
 * Units run in passes over the whole suite, in an order shuffled from
 * the run seed; every unit's bytes are checked against its golden and
 * its verdicts against the workload's ground truth.
 */

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "measure.h"
#include "portend/portend.h"
#include "portend/render.h"
#include "replay/checkpoint.h"
#include "support/hash.h"
#include "support/rng.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using namespace portend;

/** Independent set-ups timed per run; setup_s is their median. */
constexpr int kSetupReps = 31;

struct TriageUnit
{
    std::string name; ///< registry name (golden file stem)
    workloads::Workload workload;
    core::PortendOptions opts;
    std::string golden;
};

/** What one pass over the suite produced, for the work fingerprint. */
struct PassWork
{
    std::vector<std::uint64_t> verdicts; ///< bytes hash, registry order
    std::uint64_t detect_steps = 0;
    std::uint64_t classify_steps = 0;

    std::string
    fingerprint() const
    {
        std::uint64_t h = kFnvOffset;
        for (std::uint64_t v : verdicts)
            h = hashCombine(h, v);
        return hex64(h) + " detect.steps=" + std::to_string(detect_steps) +
               " classify.steps=" + std::to_string(classify_steps);
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** The suite with the options and golden bytes of
 *  `portend classify <w> --json --jobs 1`. */
std::vector<TriageUnit>
buildSuite(const std::string &golden_dir)
{
    std::vector<TriageUnit> units;
    for (const std::string &name : workloads::workloadNames()) {
        TriageUnit u;
        u.name = name;
        u.workload = workloads::buildWorkload(name);
        u.opts.jobs = 1;
        u.opts.semantic_predicates = u.workload.semantic_predicates;
        u.golden = readFile(golden_dir + "/" + name + ".json");
        units.push_back(std::move(u));
    }
    return units;
}

core::RenderMode
classifyJson()
{
    core::RenderMode m;
    m.json = true;
    m.classify_mode = true;
    return m;
}

/**
 * runFrom() decomposed into its public pieces, one span each: static
 * analysis, the shared checkpoint ladder, and one RaceAnalyzer per
 * cluster with the options ClassificationScheduler::makeUnits()
 * slices. Must render the same bytes as the one-call path.
 */
core::PortendResult
classifyTraced(core::Portend &tool, const TriageUnit &u,
               core::DetectionResult detection, SpanLog &log,
               std::int64_t id)
{
    const ir::Program &prog = u.workload.program;
    core::PortendResult res;
    res.detection = std::move(detection);
    const rt::StaticInfo *static_info = nullptr;
    {
        ScopedSpan s(log, "rt.static", id);
        static_info = &tool.staticInfo();
    }
    const std::vector<race::RaceCluster> &clusters =
        res.detection.clusters;
    const replay::ScheduleTrace &trace = res.detection.trace;
    obs::MetricsShard batch;
    if (!clusters.empty()) {
        std::optional<replay::CheckpointLadder> ladder;
        {
            ScopedSpan s(log, "replay.ladder", id);
            ladder.emplace(replay::CheckpointLadder::build(
                prog, trace,
                replay::CheckpointLadder::targetsFor(clusters),
                core::RaceAnalyzer::replayOptions(u.opts),
                u.opts.semantic_predicates));
        }
        batch.add(obs::Counter::LadderRungs, ladder->size());
        batch.add(obs::Counter::LadderBuildSteps, ladder->buildSteps());
        batch.add(obs::Counter::LadderCoveredSteps,
                  ladder->prefixStepsCovered());
        core::ClassificationScheduler scheduler(prog, u.opts,
                                                *static_info);
        res.reports.resize(clusters.size());
        for (const core::ClusterUnit &cu :
             scheduler.makeUnits(clusters.size())) {
            ScopedSpan s(log, "portend.cluster", id);
            core::RaceAnalyzer analyzer(prog, cu.opts, *static_info);
            core::PortendReport &out = res.reports[cu.index];
            out.cluster = clusters[cu.index];
            out.classification = analyzer.classify(
                clusters[cu.index].representative, trace, &*ladder);
            core::foldVerdict(out.classification, batch);
        }
    }
    res.metrics.add(obs::Counter::PipelineWorkloads, 1);
    res.metrics.merge(res.detection.metrics);
    res.metrics.merge(batch);
    return res;
}

void
tallyAccuracy(const TriageUnit &u, const core::PortendResult &res,
              std::uint64_t &correct, std::uint64_t &total)
{
    std::vector<Verdict> reported;
    for (const core::PortendReport &r : res.reports)
        reported.push_back(
            {u.workload.program.cellName(r.cluster.representative.cell),
             core::raceClassName(r.classification.cls),
             core::violationKindName(r.classification.viol)});
    tallyTruth(u.workload.expected, reported,
               !u.opts.semantic_predicates.empty(), correct, total);
}

struct Phase
{
    Calibrator cal; ///< process CPU per unit, calibrated
    std::uint64_t units = 0;
    std::uint64_t cpu_ns = 0;
};

/**
 * Timed passes until @p seconds of wall time are spent (whole passes
 * only, so every pass carries the same unit mix). Checks every unit;
 * a traced phase folds the pipeline metrics into @p shard.
 */
Phase
runPasses(std::vector<TriageUnit> &suite, const Options &o, bool traced,
          SpanLog &log, Report &rep,
          std::optional<PassWork> &reference,
          std::uint64_t &matched, std::uint64_t &correct,
          std::uint64_t &races, obs::MetricsShard *shard)
{
    Phase ph;
    Calibrator &cal = ph.cal;
    Rng rng(hashCombine(o.seed, traced ? 2 : 1));
    std::vector<std::size_t> order(suite.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const core::RenderMode mode = classifyJson();
    // The total excludes the calibration kernel runs between units.
    cal.sample();
    const std::uint64_t cpu0 = processCpuNs() - cal.spentCpuNs();
    const std::uint64_t start = wallNs();
    do {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        PassWork pass;
        pass.verdicts.assign(suite.size(), 0);
        for (std::size_t idx : order) {
            const TriageUnit &u = suite[idx];
            const auto id = static_cast<std::int64_t>(ph.units);
            rep.attempted += 1;
            ph.units += 1;
            std::string bytes;
            core::PortendResult res;
            const std::uint64_t c0 = processCpuNs();
            try {
                ScopedSpan unit_span(log, "triage.unit", id);
                core::Portend tool(u.workload.program, u.opts);
                core::DetectionResult det;
                {
                    ScopedSpan s(log, "race.detect", id);
                    det = tool.detect();
                }
                res = traced ? classifyTraced(tool, u, std::move(det),
                                              log, id)
                             : tool.runFrom(std::move(det));
                ScopedSpan s(log, "portend.render", id);
                bytes = core::renderPipelineReport(
                    u.workload.name, u.workload.program, res,
                    u.opts.mp, u.opts.ma, mode);
            } catch (const std::exception &e) {
                rep.failed += 1;
                rep.fail(u.name + ": " + e.what());
                continue;
            }
            cal.add(nsToMs(processCpuNs() - c0));
            if (bytes == u.golden)
                matched += 1;
            else
                rep.fail(u.name + ": verdict bytes differ from golden");
            tallyAccuracy(u, res, correct, races);
            pass.verdicts[idx] = fnv1a(bytes);
            pass.detect_steps +=
                res.metrics.counter(obs::Counter::DetectSteps);
            pass.classify_steps +=
                res.metrics.counter(obs::Counter::ClassifySteps);
            if (shard)
                shard->merge(res.metrics);
        }
        if (!reference)
            reference = pass;
        else if (pass.fingerprint() != reference->fingerprint())
            rep.fail("pass work fingerprint " + pass.fingerprint() +
                     " differs from " + reference->fingerprint());
    } while (nsToS(wallNs() - start) < o.seconds);
    cal.sample();
    ph.cpu_ns = processCpuNs() - cal.spentCpuNs() - cpu0;
    return ph;
}

/** Calibrated units per CPU second of a phase. */
double
perCpuSecond(const Phase &ph)
{
    return ph.cpu_ns ? static_cast<double>(ph.units) / nsToS(ph.cpu_ns) *
                           ph.cal.factor()
                     : 0.0;
}

} // namespace

int
runTriage(const Options &o, Report &rep)
{
    // Set-up: build the suite and run one untimed warm-up pass (it
    // fills the fingerprint-keyed decode cache), several times over,
    // each timed by process CPU.
    Calibrator setups;
    setups.sample();
    std::vector<TriageUnit> suite;
    for (int r = 0; r < kSetupReps; ++r) {
        suite.clear();
        const std::uint64_t t0 = processCpuNs();
        suite = buildSuite(o.golden_dir);
        for (const TriageUnit &u : suite) {
            core::Portend tool(u.workload.program, u.opts);
            core::renderPipelineReport(u.workload.name,
                                       u.workload.program, tool.run(),
                                       u.opts.mp, u.opts.ma,
                                       classifyJson());
        }
        setups.add(nsToMs(processCpuNs() - t0));
    }
    setups.sample();
    for (const TriageUnit &u : suite)
        if (u.golden.empty())
            rep.fail("missing golden " + o.golden_dir + "/" + u.name +
                     ".json");

    std::optional<PassWork> reference;
    std::uint64_t matched = 0, correct = 0, races = 0;
    SpanLog off(false);
    const Phase base = runPasses(suite, o, false, off, rep,
                                 reference, matched, correct, races,
                                 nullptr);

    rep.fingerprint_key = "triage";
    rep.fingerprint = reference ? reference->fingerprint() : "";
    rep.note("triage: " + std::to_string(suite.size()) +
             " workloads, seed " + std::to_string(o.seed) + ", " +
             std::to_string(base.units) + " units untraced");

    if (!o.trace) {
        EndToEnd e;
        e.units = static_cast<double>(base.cal.scaled().size());
        e.attempted = static_cast<double>(base.units);
        e.cpu_s = nsToS(base.cpu_ns);
        e.peak_rss_mb = selfPeakRssMb();
        e.matched_pct = 100.0 * static_cast<double>(matched) / e.attempted;
        e.accuracy_pct = races ? 100.0 * static_cast<double>(correct) /
                                     static_cast<double>(races)
                               : 0.0;
        reportEndToEnd(rep, e, setups, base.cal);
        return 0;
    }

    // Traced phase: same passes through the decomposed pipeline, with
    // benchmark-side spans and the registry collector installed.
    SpanLog log(true);
    obs::Collector collector;
    obs::setCollector(&collector);
    obs::MetricsShard traced_shard;
    const Phase traced = runPasses(suite, o, true, log, rep,
                                   reference, matched, correct, races,
                                   &traced_shard);
    obs::setCollector(nullptr);
    collector.drainInto(traced_shard);
    rep.note("triage traced: " + std::to_string(traced.units) + " units");

    // Layer times per unit, calibrated like the end-to-end times.
    const double units = static_cast<double>(traced.units);
    const double f = traced.cal.factor();
    const double per = units * f;
    std::map<std::string, double> self = log.selfMsByName();
    rep.metric("race.detect_ms", self["race.detect"] / per, "ms");
    rep.metric("rt.static_ms", self["rt.static"] / per, "ms");
    rep.metric("replay.ladder_ms", self["replay.ladder"] / per, "ms");
    const std::vector<double> clusters = log.durationsMs("portend.cluster");
    rep.metric("portend.cluster_ms.p50", median(clusters) / f,
               "ms");
    const Tail ct = tailOf(clusters);
    rep.metric("portend.cluster_ms.tail", ct.value / f, "ms");
    rep.tail("portend.cluster_ms.tail", ct);
    rep.metric("portend.classify_ms", self["portend.cluster"] / per, "ms");
    rep.metric("portend.render_ms", self["portend.render"] / per, "ms");
    reportLayerCounts(rep, traced_shard, units, true);
    reportAbsentLayers(rep, Layers::Triage);
    const double traced_rate = perCpuSecond(traced);
    rep.metric("trace.overhead_pct",
               traced_rate > 0 ? 100.0 * (perCpuSecond(base) /
                                              traced_rate -
                                          1.0)
                               : 0.0,
               "%");
    std::string err;
    if (!o.spans_out.empty() && !log.writeJsonl(o.spans_out, &err))
        rep.fail(err);
    return 0;
}

} // namespace perfbench
