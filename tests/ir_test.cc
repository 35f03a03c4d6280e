/** @file Unit tests for the PIL program representation. */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/verifier.h"

namespace portend::ir {
namespace {

using K = sym::ExprKind;

Program
tinyProgram()
{
    ProgramBuilder pb("tiny");
    GlobalId g = pb.global("g", 2, {7, 9});
    auto &f = pb.function("main", 0);
    f.to(f.block("entry"));
    Reg v = f.load(g, I(1));
    f.store(g, I(0), R(f.bin(K::Add, R(v), I(1))));
    f.output("v", R(v));
    f.halt();
    return pb.build();
}

TEST(ProgramTest, FinalizeAssignsLinearPcs)
{
    Program p = tinyProgram();
    EXPECT_TRUE(p.finalized());
    EXPECT_EQ(p.numInsts(), 5);
    for (int pc = 0; pc < p.numInsts(); ++pc)
        EXPECT_EQ(p.instAt(pc).pc, pc);
}

TEST(ProgramTest, CellIdsAndNames)
{
    Program p = tinyProgram();
    EXPECT_EQ(p.numCells(), 2);
    EXPECT_EQ(p.cellId(0, 1), 1);
    EXPECT_EQ(p.cellName(0), "g[0]");
    EXPECT_EQ(p.cellGlobal(1), 0);
    EXPECT_EQ(p.cellGlobal(99), -1);
}

/** The linear scan Program::cellGlobal used before its binary
 *  search: the first global whose cells hold @p cell. */
GlobalId
scanCellGlobal(const Program &p, int cell)
{
    for (std::size_t g = 0; g < p.globals.size(); ++g) {
        const int base = p.cellId(static_cast<GlobalId>(g), 0);
        if (cell >= base && cell < base + p.globals[g].size)
            return static_cast<GlobalId>(g);
    }
    return -1;
}

/** The name the linear scan rendered for @p cell. */
std::string
scanCellName(const Program &p, int cell)
{
    const GlobalId g = scanCellGlobal(p, cell);
    if (g < 0)
        return "<cell " + std::to_string(cell) + ">";
    const Global &gl = p.globals[static_cast<std::size_t>(g)];
    const int idx = cell - p.cellId(g, 0);
    return gl.size > 1 ? gl.name + "[" + std::to_string(idx) + "]"
                       : gl.name;
}

TEST(ProgramTest, CellLookupMatchesLinearScan)
{
    ProgramBuilder pb("cells");
    pb.global("a", 3);
    pb.global("b");
    pb.global("c", 70);
    pb.global("d", 2);
    auto &f = pb.function("main", 0);
    f.to(f.block("entry"));
    f.halt();
    Program p = pb.build();
    // The builder and the parser reject empty globals, but the
    // verifier does not: put some at the front, between two globals,
    // and at the end (main touches no memory, so ids may shift).
    p.globals.insert(p.globals.begin(), Global{"lead", 0, {}});
    p.globals.insert(p.globals.begin() + 3, Global{"mid0", 0, {}});
    p.globals.insert(p.globals.begin() + 4, Global{"mid1", 0, {}});
    p.globals.push_back(Global{"tail", 0, {}});
    p.finalize();
    ASSERT_TRUE(verifyProgram(p).empty());
    ASSERT_EQ(p.numCells(), 76);

    for (int cell = -3; cell < p.numCells() + 3; ++cell) {
        EXPECT_EQ(p.cellGlobal(cell), scanCellGlobal(p, cell))
            << "cell " << cell;
        EXPECT_EQ(p.cellName(cell), scanCellName(p, cell))
            << "cell " << cell;
    }
    EXPECT_EQ(p.cellName(0), "a[0]");
    EXPECT_EQ(p.cellName(3), "b");
    EXPECT_EQ(p.cellName(4), "c[0]");
    EXPECT_EQ(p.cellName(75), "d[1]");
    EXPECT_EQ(p.cellGlobal(76), -1);
}

TEST(ProgramTest, FindFunction)
{
    Program p = tinyProgram();
    EXPECT_EQ(p.findFunction("main"), p.entry);
    EXPECT_EQ(p.findFunction("nope"), -1);
}

TEST(BuilderTest, CallResolutionAndParams)
{
    ProgramBuilder pb("calls");
    auto &callee = pb.function("twice", 1);
    callee.to(callee.block("entry"));
    callee.ret(R(callee.bin(K::Mul, R(callee.param(0)), I(2))));
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    Reg r = m.call("twice", {I(21)});
    m.output("r", R(r));
    m.halt();
    Program p = pb.build();
    EXPECT_EQ(p.functions.size(), 2u);
    // The call instruction resolved to the callee's id.
    bool found = false;
    for (const auto &b : p.function(p.entry).blocks) {
        for (const auto &inst : b.insts) {
            if (inst.op == Op::Call) {
                EXPECT_EQ(inst.fid, p.findFunction("twice"));
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(VerifierTest, AcceptsValidProgram)
{
    Program p = tinyProgram();
    EXPECT_TRUE(verifyProgram(p).empty());
}

TEST(VerifierTest, RejectsMissingTerminator)
{
    Program p = tinyProgram();
    // Chop off the terminator of the entry block.
    p.functions[0].blocks[0].insts.pop_back();
    p.finalize();
    auto errs = verifyProgram(p);
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("terminator"), std::string::npos);
}

TEST(VerifierTest, RejectsBadBranchTarget)
{
    Program p = tinyProgram();
    Inst br;
    br.op = Op::Br;
    br.a = I(1);
    br.then_block = 42;
    br.else_block = 0;
    auto &insts = p.functions[0].blocks[0].insts;
    insts.insert(insts.end() - 1, br);
    p.finalize();
    auto errs = verifyProgram(p);
    bool found = false;
    for (const auto &e : errs)
        found = found || e.find("target") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(VerifierTest, RejectsRegisterOutOfRange)
{
    Program p = tinyProgram();
    p.functions[0].blocks[0].insts[0].dst = 999;
    auto errs = verifyProgram(p);
    bool found = false;
    for (const auto &e : errs)
        found = found || e.find("out of range") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(VerifierTest, RejectsBadSyncIds)
{
    ProgramBuilder pb("badsync");
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    m.halt();
    Program p = pb.build();
    Inst lk;
    lk.op = Op::MutexLock;
    lk.sid = 3; // no mutexes declared
    auto &insts = p.functions[0].blocks[0].insts;
    insts.insert(insts.begin(), lk);
    p.finalize();
    auto errs = verifyProgram(p);
    bool found = false;
    for (const auto &e : errs)
        found = found || e.find("mutex") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(VerifierTest, RejectsEmptyInputDomain)
{
    ProgramBuilder pb("badinput");
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    m.input("x", 5, 2); // empty domain
    m.halt();
    Program p = pb.build(/*verify=*/false);
    auto errs = verifyProgram(p);
    bool found = false;
    for (const auto &e : errs)
        found = found || e.find("domain") != std::string::npos;
    EXPECT_TRUE(found);
}

} // namespace
} // namespace portend::ir
