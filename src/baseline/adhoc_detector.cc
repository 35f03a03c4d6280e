#include "baseline/adhoc_detector.h"

namespace portend::baseline {

namespace {

/**
 * Trace the defining chain of @p reg backwards through @p insts
 * (starting at index @p from) and collect globals whose loads feed
 * it. Follows Mov/Bin/Un/Select chains within the block.
 */
void
collectConditionLoads(const std::vector<ir::Inst> &insts, int from,
                      ir::Reg reg, std::set<ir::GlobalId> &out,
                      int depth = 0)
{
    if (depth > 16 || reg < 0)
        return;
    for (int i = from; i >= 0; --i) {
        const ir::Inst &inst = insts[i];
        if (inst.dst != reg)
            continue;
        switch (inst.op) {
          case ir::Op::Load:
            out.insert(inst.gid);
            return;
          case ir::Op::Mov:
          case ir::Op::Un:
            if (inst.a.isReg()) {
                collectConditionLoads(insts, i - 1, inst.a.reg, out,
                                      depth + 1);
            }
            return;
          case ir::Op::Bin:
          case ir::Op::Select:
            if (inst.a.isReg()) {
                collectConditionLoads(insts, i - 1, inst.a.reg, out,
                                      depth + 1);
            }
            if (inst.b.isReg()) {
                collectConditionLoads(insts, i - 1, inst.b.reg, out,
                                      depth + 1);
            }
            if (inst.c.isReg()) {
                collectConditionLoads(insts, i - 1, inst.c.reg, out,
                                      depth + 1);
            }
            return;
          default:
            return;
        }
    }
}

/** True when the block contains a blocking synchronization op. */
bool
hasBlockingSync(const ir::BasicBlock &b)
{
    for (const auto &inst : b.insts) {
        switch (inst.op) {
          case ir::Op::MutexLock:
          case ir::Op::CondWait:
          case ir::Op::BarrierWait:
          case ir::Op::ThreadJoin:
            return true;
          default:
            break;
        }
    }
    return false;
}

/** True when the block writes global @p g. */
bool
writesGlobal(const ir::BasicBlock &b, ir::GlobalId g)
{
    for (const auto &inst : b.insts) {
        if ((inst.op == ir::Op::Store ||
             inst.op == ir::Op::AtomicRmW) &&
            inst.gid == g) {
            return true;
        }
    }
    return false;
}

} // namespace

AdhocDetector::AdhocDetector(const ir::Program &prog) : prog(prog)
{
    // A spin-wait loop: block B ends in Br and one branch target is
    // B itself (or a block that unconditionally re-enters B), the
    // condition is fed by a load of global g, B never writes g, and
    // B performs no blocking synchronization.
    for (const auto &f : prog.functions) {
        for (std::size_t bi = 0; bi < f.blocks.size(); ++bi) {
            const ir::BasicBlock &b = f.blocks[bi];
            if (b.insts.empty())
                continue;
            const ir::Inst &term = b.insts.back();
            if (term.op != ir::Op::Br)
                continue;
            const bool self_loop =
                term.then_block == static_cast<ir::BlockId>(bi) ||
                term.else_block == static_cast<ir::BlockId>(bi);
            if (!self_loop)
                continue;
            if (hasBlockingSync(b))
                continue;
            if (!term.a.isReg())
                continue;
            std::set<ir::GlobalId> cond_loads;
            collectConditionLoads(
                b.insts, static_cast<int>(b.insts.size()) - 1,
                term.a.reg, cond_loads);
            for (ir::GlobalId g : cond_loads) {
                if (!writesGlobal(b, g))
                    flags.insert(g);
            }
        }
    }
}

AdhocVerdict
AdhocDetector::classify(const race::RaceReport &race) const
{
    ir::GlobalId g = prog.cellGlobal(race.cell);
    if (g >= 0 && flags.count(g))
        return AdhocVerdict::SingleOrdering;
    return AdhocVerdict::NotClassified;
}

} // namespace portend::baseline
