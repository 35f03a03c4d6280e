/**
 * @file
 * Record → replay identity battery.
 *
 * Replay-based detection rests on a replay reproducing the recorded
 * run exactly. Each program is recorded through RecordingPolicy,
 * once over the FIFO and once over the random policy, with a sink
 * capturing the event stream; it is then replayed under TracePolicy
 * from the recorded inputs alone. The replay must publish the same
 * event stream, field for field, end with the same outcome and
 * follow every recorded decision. These tests pin that identity on
 * the Table 1 workloads, the extension workloads and the generated
 * programs at fuzz seed 42.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "fuzz/generator.h"
#include "replay/replayer.h"
#include "replay/trace.h"
#include "rt/interpreter.h"
#include "rt/policy.h"
#include "workloads/registry.h"

namespace portend::rt {
namespace {

/** Records every observed event's fields, in delivery order. */
class StreamSink : public EventSink
{
  public:
    using Fields = std::tuple<int, ThreadId, int, std::uint64_t, int,
                              bool, std::uint64_t, std::uint64_t,
                              ir::SyncId, ThreadId,
                              const ir::SourceLoc *>;

    void
    onEvent(const Event &ev) override
    {
        events.emplace_back(static_cast<int>(ev.kind), ev.tid, ev.pc,
                            ev.step, ev.cell, ev.atomic, ev.occurrence,
                            ev.cell_occurrence, ev.sid, ev.other,
                            ev.loc);
    }

    std::vector<Fields> events;
};

void
expectReplayReproduces(const ir::Program &p, const std::string &what)
{
    for (bool random : {false, true}) {
        SCOPED_TRACE(what + (random ? " [random policy]" : " [fifo]"));
        ExecOptions eo;
        eo.preempt_on_memory = true;
        eo.rng_seed = 7;

        replay::ScheduleTrace trace;
        StreamSink recorded;
        Interpreter rec_interp(p, eo);
        FifoPolicy fifo;
        RandomPolicy rnd;
        replay::RecordingPolicy rec(
            p, random ? static_cast<SchedulePolicy *>(&rnd) : &fifo,
            &trace);
        rec_interp.setPolicy(&rec);
        rec_interp.addSink(&recorded);
        rec_interp.run();
        replay::RecordingPolicy::captureInputs(rec_interp.state(),
                                               &trace);
        EXPECT_FALSE(recorded.events.empty());

        ExecOptions ro;
        ro.preempt_on_memory = true;
        ro.concrete_inputs = trace.concreteInputs();
        StreamSink replayed;
        Interpreter rep_interp(p, ro);
        replay::TracePolicy tp(trace);
        rep_interp.setPolicy(&tp);
        rep_interp.addSink(&replayed);
        rep_interp.run();

        const VmState &a = rec_interp.state();
        const VmState &b = rep_interp.state();
        EXPECT_EQ(tp.divergences(), 0);
        EXPECT_EQ(b.outcome, a.outcome);
        EXPECT_EQ(b.outcome_detail, a.outcome_detail);
        EXPECT_EQ(replayed.events, recorded.events);
    }
}

TEST(InterpDifferentialTest, WorkloadReplaysReproduceTheRecording)
{
    for (const std::string &name : workloads::workloadNames())
        expectReplayReproduces(workloads::buildWorkload(name).program,
                               name);
}

TEST(InterpDifferentialTest, ExtensionWorkloadReplaysReproduceTheRecording)
{
    for (const std::string &name : workloads::extensionWorkloadNames())
        expectReplayReproduces(workloads::buildWorkload(name).program,
                               name);
}

TEST(InterpDifferentialTest, FuzzedProgramReplaysReproduceTheRecording)
{
    fuzz::GeneratorOptions opts;
    for (std::uint64_t i = 0; i < 12; ++i) {
        auto gen = fuzz::generateProgram(42, i, opts);
        ASSERT_TRUE(gen.verify_errors.empty()) << gen.recipe.name;
        expectReplayReproduces(gen.program, gen.recipe.name);
    }
}

} // namespace
} // namespace portend::rt
