/** @file Unit and property tests for the interpreter core. */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "output_text.h"
#include "rt/interpreter.h"
#include "rt/staticinfo.h"

namespace portend::rt {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

TEST(InterpreterTest, ArithmeticAndOutput)
{
    ir::ProgramBuilder pb("arith");
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    ir::Reg a = m.iconst(6);
    ir::Reg b = m.bin(K::Mul, R(a), I(7));
    m.output("answer", R(b));
    m.halt();
    ir::Program p = pb.build();
    Interpreter interp(p, ExecOptions{});
    EXPECT_EQ(interp.run(), RunOutcome::Exited);
    ASSERT_EQ(interp.state().output.size(), 1u);
    EXPECT_EQ(interp.state().output.records[0].value->constValue(),
              42);
}

TEST(InterpreterTest, ControlFlowLoop)
{
    ir::ProgramBuilder pb("loop");
    ir::GlobalId g = pb.global("acc");
    auto &m = pb.function("main", 0);
    ir::BlockId e = m.block("entry");
    ir::BlockId loop = m.block("loop");
    ir::BlockId done = m.block("done");
    m.to(e);
    ir::Reg i = m.iconst(5);
    m.jmp(loop);
    m.to(loop);
    ir::Reg v = m.load(g);
    m.store(g, I(0), R(m.bin(K::Add, R(v), R(i))));
    m.binInto(i, K::Sub, R(i), I(1));
    m.br(R(m.bin(K::Sgt, R(i), I(0))), loop, done);
    m.to(done);
    m.output("sum", R(m.load(g)));
    m.halt();
    ir::Program p = pb.build();
    Interpreter interp(p, ExecOptions{});
    EXPECT_EQ(interp.run(), RunOutcome::Exited);
    EXPECT_EQ(interp.state().output.records[0].value->constValue(),
              15); // 5+4+3+2+1
}

TEST(InterpreterTest, FunctionCallsReturnValues)
{
    ir::ProgramBuilder pb("calls");
    auto &sq = pb.function("square", 1);
    sq.to(sq.block("entry"));
    sq.ret(R(sq.bin(K::Mul, R(sq.param(0)), R(sq.param(0)))));
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    ir::Reg r = m.call("square", {I(9)});
    m.output("sq", R(r));
    m.halt();
    ir::Program p = pb.build();
    Interpreter interp(p, ExecOptions{});
    EXPECT_EQ(interp.run(), RunOutcome::Exited);
    EXPECT_EQ(interp.state().output.records[0].value->constValue(),
              81);
}

TEST(InterpreterTest, OutOfBoundsCrashes)
{
    ir::ProgramBuilder pb("oob");
    ir::GlobalId g = pb.global("arr", 3);
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    m.store(g, I(3), I(1));
    m.halt();
    ir::Program p = pb.build();
    Interpreter interp(p, ExecOptions{});
    EXPECT_EQ(interp.run(), RunOutcome::CrashOob);
    EXPECT_NE(interp.state().outcome_detail.find("out of bounds"),
              std::string::npos);
}

TEST(InterpreterTest, DivisionByZeroCrashes)
{
    ir::ProgramBuilder pb("div0");
    ir::GlobalId g = pb.global("zero");
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    ir::Reg z = m.load(g);
    m.bin(K::SDiv, I(1), R(z));
    m.halt();
    ir::Program p = pb.build();
    Interpreter interp(p, ExecOptions{});
    EXPECT_EQ(interp.run(), RunOutcome::CrashDivZero);
}

TEST(InterpreterTest, AssertFailure)
{
    ir::ProgramBuilder pb("assert");
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    m.assertTrue(I(0), "must hold");
    m.halt();
    ir::Program p = pb.build();
    Interpreter interp(p, ExecOptions{});
    EXPECT_EQ(interp.run(), RunOutcome::AssertFail);
    EXPECT_NE(interp.state().outcome_detail.find("must hold"),
              std::string::npos);
}

TEST(InterpreterTest, StepBudgetTimesOut)
{
    ir::ProgramBuilder pb("spin");
    ir::GlobalId g = pb.global("never");
    auto &m = pb.function("main", 0);
    ir::BlockId spin = m.block("spin");
    m.to(spin);
    ir::Reg v = m.load(g);
    m.br(R(v), spin, spin);
    ir::Program p = pb.build();
    ExecOptions eo;
    eo.max_steps = 1000;
    Interpreter interp(p, eo);
    EXPECT_EQ(interp.run(), RunOutcome::TimedOut);
}

TEST(InterpreterTest, ThreadCreateJoinAndSharedMemory)
{
    ir::ProgramBuilder pb("threads");
    ir::GlobalId g = pb.global("sum");
    auto &w = pb.function("adder", 1);
    w.to(w.block("entry"));
    ir::Reg v = w.load(g);
    w.store(g, I(0), R(w.bin(K::Add, R(v), R(w.param(0)))));
    w.retVoid();
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    ir::Reg t1 = m.threadCreate("adder", I(10));
    m.threadJoin(R(t1));
    ir::Reg t2 = m.threadCreate("adder", I(32));
    m.threadJoin(R(t2));
    m.output("sum", R(m.load(g)));
    m.halt();
    ir::Program p = pb.build();
    Interpreter interp(p, ExecOptions{});
    EXPECT_EQ(interp.run(), RunOutcome::Exited);
    EXPECT_EQ(interp.state().output.records[0].value->constValue(),
              42);
}

TEST(InterpreterTest, SymbolicInputsAndForcedDecisions)
{
    ir::ProgramBuilder pb("symin");
    auto &m = pb.function("main", 0);
    ir::BlockId e = m.block("entry");
    ir::BlockId yes = m.block("yes");
    ir::BlockId no = m.block("no");
    m.to(e);
    ir::Reg x = m.input("x", 0, 9);
    m.br(R(m.bin(K::Sgt, R(x), I(4))), yes, no);
    m.to(yes);
    m.outputStr("big");
    m.halt();
    m.to(no);
    m.outputStr("small");
    m.halt();
    ir::Program p = pb.build();

    ExecOptions eo;
    eo.input_mode = InputMode::Symbolic;
    Interpreter interp(p, eo);
    // Force both directions without a hook via the decision queue.
    interp.state().forced_decisions.push_back(true);
    EXPECT_EQ(interp.run(), RunOutcome::Exited);
    EXPECT_EQ(interp.state().output.records[0].label, "big");
    EXPECT_EQ(interp.state().path.size(), 1u);

    interp.reset();
    interp.state().forced_decisions.push_back(false);
    EXPECT_EQ(interp.run(), RunOutcome::Exited);
    EXPECT_EQ(interp.state().output.records[0].label, "small");
}

TEST(InterpreterTest, ConcreteInputsConsumedInOrder)
{
    ir::ProgramBuilder pb("inputs");
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    ir::Reg a = m.input("a", 0, 100);
    ir::Reg b = m.input("b", 0, 100);
    m.output("diff", R(m.bin(K::Sub, R(a), R(b))));
    m.halt();
    ir::Program p = pb.build();
    ExecOptions eo;
    eo.concrete_inputs = {50, 8};
    Interpreter interp(p, eo);
    EXPECT_EQ(interp.run(), RunOutcome::Exited);
    EXPECT_EQ(interp.state().output.records[0].value->constValue(),
              42);
    EXPECT_EQ(interp.state().env_log.size(), 2u);
}

TEST(InterpreterTest, CheckpointRestoreResumesExactly)
{
    ir::ProgramBuilder pb("ckpt");
    ir::GlobalId g = pb.global("cell");
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    m.store(g, I(0), I(1));
    m.store(g, I(0), I(2));
    m.store(g, I(0), I(3));
    m.output("final", R(m.load(g)));
    m.halt();
    ir::Program p = pb.build();

    Interpreter interp(p, ExecOptions{});
    Interpreter::StopSpec stop;
    stop.before_cell.push_back({0, 0, 2}); // before 2nd access
    EXPECT_EQ(interp.run(stop), RunOutcome::Running);
    ASSERT_TRUE(interp.stopped());
    VmState ckpt = interp.state();
    EXPECT_EQ(ckpt.mem[0].constValue(), 1);

    // Finish from the checkpoint twice; identical results.
    for (int i = 0; i < 2; ++i) {
        Interpreter resume(p, ExecOptions{});
        resume.setState(ckpt);
        EXPECT_EQ(resume.run(), RunOutcome::Exited);
        EXPECT_EQ(
            resume.state().output.records[0].value->constValue(), 3);
    }
}

TEST(StaticInfoTest, TransitiveMayWrite)
{
    ir::ProgramBuilder pb("static");
    ir::GlobalId a = pb.global("a");
    ir::GlobalId b = pb.global("b");
    auto &leaf = pb.function("leaf", 0);
    leaf.to(leaf.block("entry"));
    leaf.store(b, I(0), I(1));
    leaf.retVoid();
    auto &mid = pb.function("mid", 0);
    mid.to(mid.block("entry"));
    mid.store(a, I(0), I(1));
    mid.callVoid("leaf");
    mid.retVoid();
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    m.callVoid("mid");
    m.halt();
    ir::Program p = pb.build();
    StaticInfo si(p);
    ir::FuncId mid_id = p.findFunction("mid");
    EXPECT_TRUE(si.mayWrite(mid_id).count(a));
    EXPECT_TRUE(si.mayWrite(mid_id).count(b)); // via leaf
    EXPECT_TRUE(si.mayWrite(p.entry).count(b));
}

/** Property: execution is bit-for-bit deterministic per seed. */
class DeterminismTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DeterminismTest, SameSeedSameRun)
{
    ir::ProgramBuilder pb("det");
    ir::GlobalId g = pb.global("x");
    auto &w = pb.function("w", 1);
    w.to(w.block("entry"));
    ir::Reg v = w.load(g);
    w.store(g, I(0), R(w.bin(K::Add, R(v), R(w.param(0)))));
    w.retVoid();
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    ir::Reg t1 = m.threadCreate("w", I(1));
    ir::Reg t2 = m.threadCreate("w", I(2));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.output("x", R(m.load(g)));
    m.halt();
    ir::Program p = pb.build();

    auto run = [&](std::uint64_t seed) {
        ExecOptions eo;
        eo.preempt_on_memory = true;
        eo.rng_seed = seed;
        Interpreter interp(p, eo);
        RandomPolicy rnd;
        interp.setPolicy(&rnd);
        EXPECT_EQ(interp.run(), RunOutcome::Exited);
        return std::make_pair(interp.state().global_step,
                              tests::outputText(interp.state().output));
    };
    std::uint64_t seed = GetParam() * 1234567 + 1;
    auto first = run(seed);
    auto second = run(seed);
    EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Range(0, 6));

} // namespace
} // namespace portend::rt
