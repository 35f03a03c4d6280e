/**
 * @file
 * Sink-delivery differential battery.
 *
 * The interpreter buffers events for ordinary sinks and hands them
 * over in batches, but delivers to immediate sinks as each event
 * happens. Batching must be an ordering-preserving buffer: a batched
 * and an immediate sink on the same run see the same event stream,
 * field for field, under the FIFO and the random policy. These tests
 * pin that equivalence on the Table 1 workloads, the extension
 * workloads and the generated programs at fuzz seed 42.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "fuzz/generator.h"
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
                              ir::SyncId, ThreadId>;

    explicit StreamSink(bool immediate) : immediate_(immediate) {}

    void
    onEvent(const Event &ev) override
    {
        events.emplace_back(static_cast<int>(ev.kind), ev.tid, ev.pc,
                            ev.step, ev.cell, ev.atomic, ev.occurrence,
                            ev.cell_occurrence, ev.sid, ev.other);
    }

    bool immediate() const override { return immediate_; }

    std::vector<Fields> events;

  private:
    bool immediate_;
};

void
expectSinksAgree(const ir::Program &p, const std::string &what)
{
    for (bool random : {false, true}) {
        SCOPED_TRACE(what + (random ? " [random policy]" : " [fifo]"));
        ExecOptions eo;
        eo.preempt_on_memory = true;
        eo.rng_seed = 7;
        Interpreter interp(p, eo);
        StreamSink batched(false);
        StreamSink immediate(true);
        interp.addSink(&batched);
        interp.addSink(&immediate);
        RandomPolicy rnd;
        if (random)
            interp.setPolicy(&rnd);
        interp.run();
        EXPECT_FALSE(immediate.events.empty());
        EXPECT_EQ(batched.events, immediate.events);
    }
}

TEST(InterpDifferentialTest, WorkloadEventStreamsMatch)
{
    for (const std::string &name : workloads::workloadNames())
        expectSinksAgree(workloads::buildWorkload(name).program, name);
}

TEST(InterpDifferentialTest, ExtensionWorkloadEventStreamsMatch)
{
    for (const std::string &name : workloads::extensionWorkloadNames())
        expectSinksAgree(workloads::buildWorkload(name).program, name);
}

TEST(InterpDifferentialTest, FuzzedProgramsMatch)
{
    fuzz::GeneratorOptions opts;
    for (std::uint64_t i = 0; i < 12; ++i) {
        auto gen = fuzz::generateProgram(42, i, opts);
        if (!gen.verify_errors.empty())
            continue;
        expectSinksAgree(gen.program, gen.recipe.name);
    }
}

} // namespace
} // namespace portend::rt
