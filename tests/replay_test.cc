/** @file Tests for the record/replay engine. */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "output_text.h"
#include "replay/replayer.h"
#include "replay/trace.h"
#include "rt/interpreter.h"

namespace portend::replay {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

ir::Program
twoThreadProgram()
{
    ir::ProgramBuilder pb("two");
    ir::GlobalId g = pb.global("x");
    auto &w = pb.function("w", 1);
    w.to(w.block("entry"));
    ir::Reg v = w.load(g);
    w.store(g, I(0), R(w.bin(K::Add, R(v), R(w.param(0)))));
    w.retVoid();
    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg in = mn.input("seed", 0, 9);
    mn.store(g, I(0), R(in));
    ir::Reg t1 = mn.threadCreate("w", I(3));
    ir::Reg t2 = mn.threadCreate("w", I(4));
    mn.threadJoin(R(t1));
    mn.threadJoin(R(t2));
    mn.output("x", R(mn.load(g)));
    mn.halt();
    return pb.build();
}

TEST(TraceTest, SerializeRoundTrip)
{
    ScheduleTrace t;
    t.decisions.push_back({1, 10, 5});
    t.decisions.push_back({0, 3, 9});
    rt::VmState::EnvRead r1;
    r1.value = 7;
    rt::VmState::EnvRead r2;
    r2.symbolic = true;
    r2.sym_id = 0;
    r2.value = 2;
    t.inputs = {r1, r2};
    auto parsed = ScheduleTrace::deserialize(t.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == t);
}

TEST(TraceTest, DeserializeRejectsGarbage)
{
    EXPECT_FALSE(ScheduleTrace::deserialize("not a trace").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize("trace v1\nz 1 2 3").has_value());
}

TEST(TraceTest, SummaryLooksLikeThePaper)
{
    ScheduleTrace t;
    t.decisions.push_back({0, 9, 0});
    t.decisions.push_back({1, 15, 4});
    std::string s = t.summary();
    EXPECT_NE(s.find("(T0:pc9) -> (T1:pc15)"), std::string::npos);
}

TEST(ReplayTest, RecordThenReplayReproducesOutputs)
{
    ir::Program p = twoThreadProgram();
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    eo.rng_seed = 77;

    ScheduleTrace trace;
    std::vector<std::string> recorded_output;
    {
        rt::Interpreter interp(p, eo);
        rt::RandomPolicy rnd;
        RecordingPolicy rec(p, &rnd, &trace);
        interp.setPolicy(&rec);
        EXPECT_EQ(interp.run(), rt::RunOutcome::Exited);
        RecordingPolicy::captureInputs(interp.state(), &trace);
        recorded_output = tests::outputText(interp.state().output);
    }
    EXPECT_FALSE(trace.decisions.empty());

    {
        rt::ExecOptions replay_eo;
        replay_eo.preempt_on_memory = true;
        replay_eo.concrete_inputs = trace.concreteInputs();
        rt::Interpreter interp(p, replay_eo);
        rt::RotatePolicy fallback;
        TracePolicy tp(trace, &fallback);
        interp.setPolicy(&tp);
        EXPECT_EQ(interp.run(), rt::RunOutcome::Exited);
        EXPECT_EQ(tp.divergences(), 0);
        EXPECT_EQ(tests::outputText(interp.state().output),
                  recorded_output);
    }
}

TEST(ReplayTest, DivergenceAborts)
{
    ir::Program p = twoThreadProgram();
    // A bogus trace whose first decision names a thread that cannot
    // be runnable yet.
    ScheduleTrace bogus;
    bogus.decisions.push_back({2, 0, 0});
    rt::Interpreter interp(p, rt::ExecOptions{});
    TracePolicy tp(bogus);
    interp.setPolicy(&tp);
    EXPECT_EQ(interp.run(), rt::RunOutcome::Aborted);
    EXPECT_GT(tp.divergences(), 0);
}

TEST(AlternateTest, EnforcesReversedOrdering)
{
    // Writer publishes 5; reader races. Enforce "reader first":
    // the reader must observe the initial 0.
    ir::ProgramBuilder pb("alt");
    ir::GlobalId g = pb.global("x");
    auto &wr = pb.function("wr", 1);
    wr.to(wr.block("entry"));
    wr.store(g, I(0), I(5));
    wr.retVoid();
    auto &rd = pb.function("rd", 1);
    rd.to(rd.block("entry"));
    ir::Reg v = rd.load(g);
    rd.output("saw", R(v));
    rd.retVoid();
    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg t1 = mn.threadCreate("wr", I(0));
    ir::Reg t2 = mn.threadCreate("rd", I(0));
    mn.threadJoin(R(t1));
    mn.threadJoin(R(t2));
    mn.halt();
    ir::Program p = pb.build();

    race::RaceReport race;
    race.cell = 0;
    race.first.tid = 1;  // writer wrote first originally
    race.second.tid = 2; // reader
    race.first.cell_occurrence = 1;

    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    rt::Interpreter interp(p, eo);
    rt::Interpreter::StopSpec pre;
    pre.before_cell.push_back({1, 0, 1});
    EXPECT_EQ(interp.run(pre), rt::RunOutcome::Running);
    ASSERT_TRUE(interp.stopped());

    interp.state().resume_in_segment = false;
    rt::RotatePolicy post;
    AlternatePolicy alt(race, &post);
    interp.setPolicy(&alt);
    EXPECT_EQ(interp.run(), rt::RunOutcome::Exited);
    EXPECT_TRUE(alt.enforced());
    EXPECT_FALSE(alt.starved());
    ASSERT_EQ(interp.state().output.size(), 1u);
    EXPECT_EQ(interp.state().output.records[0].value->constValue(),
              0); // reader ran before the held writer
}

TEST(AlternateTest, StarvesWhenOnlyHeldThreadRunnable)
{
    ir::ProgramBuilder pb("starve");
    ir::GlobalId g = pb.global("x");
    auto &wr = pb.function("wr", 1);
    wr.to(wr.block("entry"));
    wr.store(g, I(0), I(1));
    wr.retVoid();
    auto &mn = pb.function("main", 0);
    mn.to(mn.block("entry"));
    ir::Reg t1 = mn.threadCreate("wr", I(0));
    mn.threadJoin(R(t1)); // main blocks; writer is the only runner
    mn.load(g);
    mn.halt();
    ir::Program p = pb.build();

    race::RaceReport race;
    race.cell = 0;
    race.first.tid = 1;  // hold the writer
    race.second.tid = 0; // main never gets there while joining
    race.first.cell_occurrence = 1;

    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    rt::Interpreter interp(p, eo);
    rt::Interpreter::StopSpec pre;
    pre.before_cell.push_back({1, 0, 1});
    EXPECT_EQ(interp.run(pre), rt::RunOutcome::Running);
    interp.state().resume_in_segment = false;
    rt::RotatePolicy post;
    AlternatePolicy alt(race, &post);
    interp.setPolicy(&alt);
    EXPECT_EQ(interp.run(), rt::RunOutcome::Aborted);
    EXPECT_TRUE(alt.starved());
}

} // namespace
} // namespace portend::replay
