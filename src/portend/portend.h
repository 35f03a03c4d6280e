/**
 * @file
 * Portend public API.
 *
 * The facade runs the full pipeline from the paper's Fig. 2: execute
 * the program under the dynamic race detector while recording a
 * schedule trace, cluster the reported races, then classify each
 * cluster's representative with multi-path multi-schedule analysis
 * and symbolic output comparison.
 *
 * Typical use:
 * @code
 *   core::Portend portend(program);
 *   core::PortendResult result = portend.run();
 *   for (const core::PortendReport &r : result.reports)
 *       std::cout << core::formatReport(program, r);
 * @endcode
 */

#ifndef PORTEND_PORTEND_PORTEND_H
#define PORTEND_PORTEND_PORTEND_H

#include <memory>
#include <string>
#include <vector>

#include "portend/analyzer.h"
#include "portend/scheduler.h"
#include "race/report.h"
#include "replay/trace.h"

namespace portend::core {

/** Result of a detection run. */
struct DetectionResult
{
    std::vector<race::RaceCluster> clusters; ///< distinct races
    std::size_t dynamic_races = 0;           ///< total instances
    replay::ScheduleTrace trace;             ///< recorded schedule
    rt::RunOutcome outcome = rt::RunOutcome::Running;
    std::uint64_t steps = 0;                 ///< instructions run

    /** Registry view of this detection run: its step, race and
     *  cluster tallies, boxed values and unshared pages, as one
     *  deterministic shard (`--metrics-out` exports it). Its duration
     *  is the `pipeline/detect` span's. */
    obs::MetricsShard metrics;
};

/** Result of the full pipeline. */
struct PortendResult
{
    DetectionResult detection;
    std::vector<PortendReport> reports;

    /**
     * The whole pipeline's metrics: detection shard merged with the
     * classification batch shard. This is what
     * the CLI's `--metrics-out` renders — byte-identical across
     * --jobs values and runs by construction.
     */
    obs::MetricsShard metrics;

    /** Reports of a given class. */
    std::vector<const PortendReport *> byClass(RaceClass c) const;
};

/**
 * The Portend tool: detector + classifier over one program.
 */
class Portend
{
  public:
    /**
     * @param prog finalized program under test (kept by reference)
     * @param opts analysis configuration
     */
    explicit Portend(const ir::Program &prog, PortendOptions opts = {});

    /**
     * Run the detection phase only: execute the program with the
     * configured detector attached, recording the schedule trace.
     * Reads only opts.max_steps and opts.detector: option sets
     * that agree on those two record the same detection, which the
     * fuzz oracle relies on to classify one detection under many
     * option sets.
     *
     * @p observers are extra passive sinks (other detectors) that
     * see every event of the same run, after the configured
     * detector; the caller owns and reads them. They never steer
     * the schedule: a sink has no say in the policy's picks, and a
     * detection run is never shortened (its RecordingPolicy vouches
     * no loop key), so the trace, clusters and metrics shard are
     * those of a run without observers.
     */
    DetectionResult detect(const std::vector<rt::EventSink *> &observers = {});

    /**
     * Full pipeline: detect, then classify every cluster through
     * the ClassificationScheduler (opts.jobs workers; verdicts are
     * byte-identical for every worker count).
     */
    PortendResult run();

    /**
     * Classification half of run(): consume an already-finished
     * detection phase. The fuzz oracle splits the pipeline here to
     * classify one detection under several option sets.
     * run() == runFrom(detect()).
     */
    PortendResult runFrom(DetectionResult detection);

    /** The options in effect. */
    const PortendOptions &options() const { return opts; }

    /**
     * The shared static analysis: computed on first use (detection
     * never needs it), then reused by every analyzer/worker.
     */
    const rt::StaticInfo &staticInfo();

  private:
    const ir::Program &prog;
    PortendOptions opts;

    /** Lazily computed; shared read-only once it exists. */
    std::unique_ptr<rt::StaticInfo> static_info;
};

/**
 * Render a classified race in the style of the paper's Fig. 6
 * debugging-aid report.
 */
std::string formatReport(const ir::Program &prog,
                         const PortendReport &report);

} // namespace portend::core

#endif // PORTEND_PORTEND_PORTEND_H
