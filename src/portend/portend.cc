#include "portend/portend.h"

#include "race/hb.h"
#include "race/lockset.h"
#include "replay/replayer.h"
#include "rt/interpreter.h"
#include "support/str.h"
#include "support/trace.h"

namespace portend::core {

std::vector<const PortendReport *>
PortendResult::byClass(RaceClass c) const
{
    std::vector<const PortendReport *> out;
    for (const auto &r : reports) {
        if (r.classification.cls == c)
            out.push_back(&r);
    }
    return out;
}

Portend::Portend(const ir::Program &prog, PortendOptions opts)
    : prog(prog), opts(std::move(opts))
{}

const rt::StaticInfo &
Portend::staticInfo()
{
    if (!static_info)
        static_info = std::make_unique<rt::StaticInfo>(prog);
    return *static_info;
}

DetectionResult
Portend::detect(const std::vector<rt::EventSink *> &observers)
{
    obs::Span span("pipeline", "detect");
    DetectionResult result;

    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    eo.max_steps = opts.max_steps;
    rt::Interpreter interp(prog, eo);

    // Rotate through runnable threads at every preemption point to
    // exercise many interleavings in a single deterministic run.
    rt::RotatePolicy rotate;
    replay::RecordingPolicy recorder(prog, &rotate, &result.trace);
    interp.setPolicy(&recorder);

    race::HbDetector hb(
        prog, race::HbOptions{opts.detector ==
                              DetectorKind::HappensBeforeNoMutex});
    race::LocksetDetector lockset(prog);
    if (opts.detector == DetectorKind::Lockset)
        interp.addSink(&lockset);
    else
        interp.addSink(&hb);
    for (rt::EventSink *s : observers)
        interp.addSink(s);

    const std::uint64_t boxed0 = rt::valuesBoxed();
    result.outcome = interp.run();
    const std::uint64_t boxed = rt::valuesBoxed() - boxed0;
    replay::RecordingPolicy::captureInputs(interp.state(),
                                           &result.trace);
    result.steps = interp.state().global_step;

    const std::vector<race::RaceReport> &found =
        opts.detector == DetectorKind::Lockset ? lockset.races()
                                               : hb.races();
    result.dynamic_races = found.size();
    result.clusters = race::clusterRaces(found);

    // The detection run's registry view. Pure function of the
    // deterministic detection run, so shard-safe.
    using obs::Counter;
    result.metrics.add(Counter::DetectRuns, 1);
    result.metrics.add(Counter::DetectSteps, result.steps);
    result.metrics.add(Counter::DetectDynamicRaces,
                       result.dynamic_races);
    result.metrics.add(Counter::DetectClusters, result.clusters.size());
    result.metrics.add(Counter::DetectHistoryEvictions,
                       opts.detector == DetectorKind::Lockset
                           ? lockset.evictions()
                           : hb.evictions());
    result.metrics.add(Counter::DetectPagesUnshared,
                       interp.state().mem.unsharedCount());
    result.metrics.add(Counter::DetectValuesBoxed, boxed);
    result.metrics.level(obs::Gauge::DecodedSites,
                         static_cast<std::uint64_t>(interp.decodedSites()));

    span.arg("clusters", static_cast<std::int64_t>(result.clusters.size()));
    return result;
}

PortendResult
Portend::run()
{
    return runFrom(detect());
}

PortendResult
Portend::runFrom(DetectionResult detection)
{
    obs::Span span("pipeline", "run");
    PortendResult result;
    result.detection = std::move(detection);

    ClassificationScheduler scheduler(prog, opts, staticInfo());
    result.reports = scheduler.classifyAll(result.detection.clusters,
                                           result.detection.trace);

    // Pipeline shard: the detection run and the batch (every merge
    // commutes, like everything else feeding --metrics-out).
    result.metrics.add(obs::Counter::PipelineWorkloads, 1);
    result.metrics.merge(result.detection.metrics);
    result.metrics.merge(scheduler.metrics());
    return result;
}

std::string
formatReport(const ir::Program &prog, const PortendReport &report)
{
    const race::RaceReport &race = report.cluster.representative;
    const Classification &c = report.classification;

    std::string out = race.describe(prog);
    out += "  instances observed: ";
    appendNum(out, report.cluster.instances);
    out += "\n  classification: ";
    out += raceClassName(c.cls);
    if (c.cls == RaceClass::SpecViolated) {
        out += " (";
        out += violationKindName(c.viol);
        out += ')';
    }
    if (c.cls == RaceClass::KWitnessHarmless) {
        out += " (k = ";
        appendNum(out, c.k);
        out += ')';
    }
    out += '\n';
    if (!c.detail.empty()) {
        out += "  detail: ";
        out += c.detail;
        out += '\n';
    }
    if (!c.output_diff.empty()) {
        out += "  output difference: ";
        out += c.output_diff;
        out += '\n';
    }
    if (c.cls == RaceClass::SpecViolated ||
        c.cls == RaceClass::OutputDiffers) {
        out += "  evidence inputs:";
        if (c.evidence_inputs.empty())
            out += " (none required)";
        for (std::int64_t v : c.evidence_inputs) {
            out += ' ';
            appendNum(out, v);
        }
        out += '\n';
        if (!c.evidence_witness.empty()) {
            out += "  witness input:";
            for (const auto &w : c.evidence_witness) {
                out += ' ';
                out += w.name;
                out += '=';
                appendNum(out, w.value);
            }
            out += '\n';
        }
        out += "  evidence ordering: ";
        out += c.evidence_alternate ? "alternate" : "primary";
        if (!c.evidence_schedule.empty()) {
            out += ", post-race schedule prefix";
            for (int t : c.evidence_schedule) {
                out += ' ';
                appendNum(out, t);
            }
        } else {
            out += ", post-race schedule seed ";
            appendNum(out, c.evidence_seed);
        }
        out += '\n';
        if (!c.evidence_signature.empty()) {
            out += "  schedule signature: ";
            out += c.evidence_signature;
            out += '\n';
        }
    }
    out += "  post-race concrete states: ";
    out += c.states_differ ? "differ\n" : "same\n";
    return out;
}

} // namespace portend::core
