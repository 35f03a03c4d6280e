/**
 * @file
 * Input-sensitive extension workloads for multi-path classification.
 *
 * Both models hide their harmful behaviour behind a configuration
 * input `n` that the default pipeline never varies: the detection
 * run and stage 1 execute with every input at its domain lower
 * bound, and legacy stage-2 symbolic selection (the first
 * core::kMaxSymbolicInputs env reads) is exhausted by two decoy
 * tunables read before `n`. Single-path analysis therefore reports
 * "k-witness harmless"; only `--sym-input n` makes the gate
 * symbolic, forks the guarded path, and upgrades the verdict with a
 * solver-concretized witness value for `n`:
 *
 *  - ibuf:   a racy message cell reaches the output only when
 *            n > 4 ("output differs", paper Fig. 4 structure);
 *  - iguard: a racy index feeds a table store whose offset includes
 *            n when n >= 8, overflowing the table in the alternate
 *            ordering ("spec violated" crash).
 *
 * Neither workload joins workloadNames(): the paper-population
 * accounting (Table 3 pins) stays untouched, and batch/--all modes
 * keep their byte-exact legacy output. They are registered through
 * extensionWorkloadNames() instead (CLI list/classify and goldens).
 */

#include "workloads/workload.h"

#include "ir/builder.h"

using portend::ir::I;
using portend::ir::R;
using K = portend::sym::ExprKind;

namespace portend::workloads {

namespace {

/**
 * Emit main's input preamble: two decoy tunables (consuming the
 * legacy positional symbolic-input slots) followed by the gate input
 * `n` with domain [0, hi], stored into @p cfg before any spawn.
 */
void
emitGatePreamble(ir::FunctionBuilder &m, ir::ProgramBuilder &pb,
                 const std::string &tag, ir::GlobalId cfg,
                 std::int64_t hi)
{
    ir::GlobalId tune_a = pb.global(tag + "_tune_a");
    ir::GlobalId tune_b = pb.global(tag + "_tune_b");
    m.store(tune_a, I(0), R(m.input("tune0", 0, 1)));
    m.store(tune_b, I(0), R(m.input("tune1", 0, 1)));
    m.store(cfg, I(0), R(m.input("n", 0, hi)));
}

} // namespace

Workload
buildSymBuf()
{
    ir::ProgramBuilder pb("ibuf");
    ir::GlobalId cfg = pb.global("cfg_n");
    ir::GlobalId msg = pb.global("ibuf_msg");

    // Writer publishes the message without synchronization.
    auto &wr = pb.function("bufWriter", 1);
    wr.file("ibuf.cpp").line(12);
    wr.to(wr.block("entry"));
    wr.store(msg, I(0), I(42));
    wr.retVoid();

    // Reader prints the racy value only on the large-buffer
    // configuration (n > 4); the default n = 0 prints a constant,
    // so both orderings produce identical output.
    auto &rd = pb.function("bufReader", 1);
    rd.file("ibuf.cpp").line(20);
    rd.to(rd.block("entry"));
    ir::Reg g = rd.load(cfg);
    ir::Reg r = rd.load(msg); // racing read
    ir::BlockId big = rd.block("big");
    ir::BlockId small = rd.block("small");
    ir::BlockId done = rd.block("done");
    rd.br(R(rd.bin(K::Sgt, R(g), I(4))), big, small);
    rd.to(big);
    rd.output("ibuf_msg", R(r));
    rd.jmp(done);
    rd.to(small);
    rd.output("ibuf_msg", I(0));
    rd.jmp(done);
    rd.to(done);
    rd.retVoid();

    auto &m = pb.function("main", 0);
    m.file("ibuf.cpp").line(5);
    m.to(m.block("entry"));
    emitGatePreamble(m, pb, "ibuf", cfg, 8);
    ir::Reg t1 = m.threadCreate("bufWriter", I(0));
    ir::Reg t2 = m.threadCreate("bufReader", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.outputStr("ibuf:done");
    m.halt();

    Workload w;
    w.name = "ibuf";
    w.language = "C++";
    w.paper_loc = 61;
    w.forked_threads = 2;
    w.paper_instances = 1;
    ExpectedRace r0;
    r0.cell = "ibuf_msg";
    r0.truth = core::RaceClass::OutputDiffers;
    // The default pipeline misses the gate (n stays concrete), like
    // the documented ocean miss; --sym-input n recovers the truth.
    r0.portend_expected = core::RaceClass::KWitnessHarmless;
    r0.required_level = 2;
    w.expected.push_back(r0);
    w.program = pb.build();
    return w;
}

Workload
buildSymGuard()
{
    ir::ProgramBuilder pb("iguard");
    constexpr int kTableSize = 9;
    ir::GlobalId cfg = pb.global("cfg_n");
    ir::GlobalId idx = pb.global("ig_idx");
    ir::GlobalId table = pb.global("ig_table", kTableSize);

    // The slot user reads the racy index, then stores through it;
    // on the n >= 8 configuration the store offset includes n, so
    // the bumped index overflows the table (alternate ordering
    // only: primary sees idx == 0 and 0 + 8 is still in bounds).
    auto &user = pb.function("slotUser", 1);
    user.file("iguard.cpp").line(14);
    user.to(user.block("entry"));
    ir::Reg g = user.load(cfg);
    ir::Reg i = user.load(idx); // racing read
    ir::BlockId wide = user.block("wide");
    ir::BlockId narrow = user.block("narrow");
    ir::BlockId done = user.block("done");
    user.br(R(user.bin(K::Sge, R(g), I(8))), wide, narrow);
    user.to(wide);
    user.store(table, R(user.bin(K::Add, R(i), R(g))), I(7));
    user.jmp(done);
    user.to(narrow);
    user.store(table, R(i), I(7));
    user.jmp(done);
    user.to(done);
    user.retVoid();

    // The bumper advances the index past the slot the user claimed.
    auto &bump = pb.function("idxBumper", 1);
    bump.file("iguard.cpp").line(30);
    bump.to(bump.block("entry"));
    ir::Reg v = bump.load(idx);
    bump.store(idx, I(0), R(bump.bin(K::Add, R(v), I(1))));
    bump.retVoid();

    auto &m = pb.function("main", 0);
    m.file("iguard.cpp").line(5);
    m.to(m.block("entry"));
    emitGatePreamble(m, pb, "iguard", cfg, 8);
    ir::Reg t1 = m.threadCreate("slotUser", I(0));
    ir::Reg t2 = m.threadCreate("idxBumper", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.outputStr("iguard:done");
    m.halt();

    Workload w;
    w.name = "iguard";
    w.language = "C++";
    w.paper_loc = 58;
    w.forked_threads = 2;
    w.paper_instances = 1;
    ExpectedRace r0;
    r0.cell = "ig_idx";
    r0.truth = core::RaceClass::SpecViolated;
    r0.viol = core::ViolationKind::Crash;
    r0.portend_expected = core::RaceClass::KWitnessHarmless;
    r0.required_level = 2;
    w.expected.push_back(r0);
    w.program = pb.build();
    return w;
}

} // namespace portend::workloads
