/** @file Round-trip tests for the PIL text serialization. */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/serialize.h"
#include "portend/portend.h"
#include "rt/interpreter.h"
#include "workloads/registry.h"

namespace portend::ir {
namespace {

/** Structural equality of two programs (field-by-field). */
void
expectSamePrograms(const Program &a, const Program &b)
{
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.globals.size(), b.globals.size());
    for (std::size_t i = 0; i < a.globals.size(); ++i) {
        EXPECT_EQ(a.globals[i].name, b.globals[i].name);
        EXPECT_EQ(a.globals[i].size, b.globals[i].size);
        EXPECT_EQ(a.globals[i].init, b.globals[i].init);
    }
    EXPECT_EQ(a.mutex_names, b.mutex_names);
    EXPECT_EQ(a.cond_names, b.cond_names);
    EXPECT_EQ(a.barrier_names, b.barrier_names);
    EXPECT_EQ(a.barrier_counts, b.barrier_counts);
    ASSERT_EQ(a.inputs.size(), b.inputs.size());
    for (std::size_t i = 0; i < a.inputs.size(); ++i) {
        EXPECT_EQ(a.inputs[i].name, b.inputs[i].name);
        EXPECT_EQ(a.inputs[i].lo, b.inputs[i].lo);
        EXPECT_EQ(a.inputs[i].hi, b.inputs[i].hi);
    }
    EXPECT_EQ(a.entry, b.entry);
    ASSERT_EQ(a.functions.size(), b.functions.size());
    for (std::size_t f = 0; f < a.functions.size(); ++f) {
        const Function &fa = a.functions[f];
        const Function &fb = b.functions[f];
        EXPECT_EQ(fa.name, fb.name);
        EXPECT_EQ(fa.num_params, fb.num_params);
        EXPECT_EQ(fa.num_regs, fb.num_regs);
        ASSERT_EQ(fa.blocks.size(), fb.blocks.size());
        for (std::size_t bi = 0; bi < fa.blocks.size(); ++bi) {
            const BasicBlock &ba = fa.blocks[bi];
            const BasicBlock &bb = fb.blocks[bi];
            EXPECT_EQ(ba.name, bb.name);
            ASSERT_EQ(ba.insts.size(), bb.insts.size());
            for (std::size_t i = 0; i < ba.insts.size(); ++i) {
                const Inst &ia = ba.insts[i];
                const Inst &ib = bb.insts[i];
                EXPECT_EQ(ia.op, ib.op);
                EXPECT_EQ(ia.dst, ib.dst);
                EXPECT_EQ(ia.a.kind, ib.a.kind);
                EXPECT_EQ(ia.a.reg, ib.a.reg);
                EXPECT_EQ(ia.a.imm, ib.a.imm);
                EXPECT_EQ(ia.kind, ib.kind);
                EXPECT_EQ(ia.width, ib.width);
                EXPECT_EQ(ia.gid, ib.gid);
                EXPECT_EQ(ia.sid, ib.sid);
                EXPECT_EQ(ia.sid2, ib.sid2);
                EXPECT_EQ(ia.fid, ib.fid);
                EXPECT_EQ(ia.then_block, ib.then_block);
                EXPECT_EQ(ia.else_block, ib.else_block);
                EXPECT_EQ(ia.lo, ib.lo);
                EXPECT_EQ(ia.hi, ib.hi);
                EXPECT_EQ(ia.text, ib.text);
                EXPECT_EQ(ia.loc.file, ib.loc.file);
                EXPECT_EQ(ia.loc.line, ib.loc.line);
                EXPECT_EQ(ia.pc, ib.pc);
            }
        }
    }
}

/** Property: every workload model round-trips exactly. */
class SerializeRoundTrip
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SerializeRoundTrip, WorkloadModelRoundTrips)
{
    workloads::Workload w = workloads::buildWorkload(GetParam());
    std::string text = serializeProgram(w.program);
    std::string err;
    auto parsed = deserializeProgram(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    expectSamePrograms(w.program, *parsed);

    // Second round trip is byte-identical (canonical form).
    EXPECT_EQ(serializeProgram(*parsed), text);
}

TEST_P(SerializeRoundTrip, ParsedProgramExecutesIdentically)
{
    workloads::Workload w = workloads::buildWorkload(GetParam());
    auto parsed = deserializeProgram(serializeProgram(w.program));
    ASSERT_TRUE(parsed.has_value());

    auto digest = [](const Program &p) {
        rt::ExecOptions eo;
        eo.preempt_on_memory = true;
        rt::Interpreter interp(p, eo);
        rt::RotatePolicy rot;
        interp.setPolicy(&rot);
        interp.run();
        return std::make_pair(
            interp.state().global_step,
            interp.state().output.concrete_chain.digest());
    };
    EXPECT_EQ(digest(w.program), digest(*parsed));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SerializeRoundTrip,
    ::testing::Values("sqlite", "ocean", "fmm", "memcached", "pbzip2",
                      "ctrace", "bbuf", "avv", "dcl", "dbm", "rw",
                      "ibuf", "iguard"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(SerializeErrorTest, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(deserializeProgram("", &err).has_value());
    EXPECT_FALSE(deserializeProgram("garbage", &err).has_value());
    EXPECT_FALSE(
        deserializeProgram("pil v2 \"x\"\nend\n", &err).has_value());
    EXPECT_FALSE(
        deserializeProgram("pil v1 \"x\"\nend\n", &err).has_value())
        << "no main function must be rejected";
    EXPECT_FALSE(deserializeProgram("pil v1 \"x\"\n"
                                    "inst nop 0 _ _ _ add 64 -1 -1 "
                                    "-1 -1 -1 -1 0 0 \"\" \"\" 0\n"
                                    "end\n",
                                    &err)
                     .has_value())
        << "inst outside block must be rejected";
    EXPECT_FALSE(deserializeProgram("pil v1 \"x\"\n"
                                    "func \"main\" 0 1\n"
                                    "block \"e\"\n"
                                    "inst frobnicate 0 _ _ _ add 64 "
                                    "-1 -1 -1 -1 -1 -1 0 0 \"\" \"\" "
                                    "0\nend\n",
                                    &err)
                     .has_value());
}

TEST(SerializeQuoteTest, EscapedStringsSurvive)
{
    ProgramBuilder pb("with \"quotes\" and \\slashes");
    auto &m = pb.function("main", 0);
    m.to(m.block("entry"));
    m.outputStr("label with spaces \"and\" quotes");
    m.halt();
    Program p = pb.build();
    auto parsed = deserializeProgram(serializeProgram(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->name, p.name);
    EXPECT_EQ(parsed->functions[0].blocks[0].insts[0].text,
              "label with spaces \"and\" quotes");
}

TEST(SerializeQuoteTest, InnerWhitespaceSurvives)
{
    // Quoted strings are scanned to their closing quote, so runs of
    // spaces and tabs inside them load as written.
    ProgramBuilder pb("two  spaces\tand a tab");
    pb.global("g  \t1", 2, {3, -4});
    pb.mutex("m\t\tm");
    pb.cond(" c ");
    pb.barrier("\tb", 2);
    auto &m = pb.function("main", 0);
    m.to(m.block("entry\t "));
    m.file("dir  /x\t.c").line(7);
    m.outputStr("  label\t\"q\"  \\ ");
    m.halt();
    auto &w = pb.function("worker  \t1", 0);
    w.to(w.block("  "));
    w.halt();
    Program p = pb.build();
    const std::string text = serializeProgram(p);
    std::string err;
    auto parsed = deserializeProgram(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    expectSamePrograms(p, *parsed);
    EXPECT_EQ(serializeProgram(*parsed), text);
}

} // namespace
} // namespace portend::ir
