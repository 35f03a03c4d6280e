#include "baseline/heuristic.h"

#include <optional>

namespace portend::baseline {

namespace {

/** Locate the instruction at linear pc, or null. */
const ir::Inst *
instAt(const ir::Program &prog, int pc)
{
    if (pc < 0 || pc >= prog.numInsts())
        return nullptr;
    return &prog.instAt(pc);
}

/**
 * Is the store at @p pc part of a load-add-store increment of the
 * same global (a statistics-counter update)?
 */
bool
isCounterIncrement(const ir::Program &prog, int pc)
{
    const ir::Inst *store = instAt(prog, pc);
    if (!store || store->op != ir::Op::Store || !store->b.isReg())
        return false;
    // Search the enclosing block backwards: value must come from
    // Bin(Add, load(g), const).
    ir::Program::PcLoc loc = prog.pcLoc(pc);
    const auto &insts =
        prog.functions[loc.func].blocks[loc.block].insts;
    ir::Reg val = store->b.reg;
    for (int i = loc.index - 1; i >= 0; --i) {
        const ir::Inst &inst = insts[i];
        if (inst.dst != val)
            continue;
        if (inst.op != ir::Op::Bin ||
            inst.kind != sym::ExprKind::Add) {
            return false;
        }
        // One operand must be a load of the same global.
        for (const ir::Operand *o : {&inst.a, &inst.b}) {
            if (!o->isReg())
                continue;
            for (int j = i - 1; j >= 0; --j) {
                const ir::Inst &def = insts[j];
                if (def.dst != o->reg)
                    continue;
                if (def.op == ir::Op::Load &&
                    def.gid == store->gid) {
                    return true;
                }
                break;
            }
        }
        return false;
    }
    return false;
}

/** Constant stored by the instruction at @p pc (if a const store). */
std::optional<std::int64_t>
storedConstant(const ir::Program &prog, int pc)
{
    const ir::Inst *store = instAt(prog, pc);
    if (!store || store->op != ir::Op::Store)
        return std::nullopt;
    if (store->b.isImm())
        return store->b.imm;
    if (!store->b.isReg())
        return std::nullopt;
    ir::Program::PcLoc loc = prog.pcLoc(pc);
    const auto &insts =
        prog.functions[loc.func].blocks[loc.block].insts;
    for (int i = loc.index - 1; i >= 0; --i) {
        const ir::Inst &inst = insts[i];
        if (inst.dst != store->b.reg)
            continue;
        if (inst.op == ir::Op::ConstOp)
            return inst.a.imm;
        return std::nullopt;
    }
    return std::nullopt;
}

/** Bit mask OR-ed into the global by the access at @p pc, if any. */
std::optional<std::int64_t>
orMask(const ir::Program &prog, int pc)
{
    const ir::Inst *store = instAt(prog, pc);
    if (!store || store->op != ir::Op::Store || !store->b.isReg())
        return std::nullopt;
    ir::Program::PcLoc loc = prog.pcLoc(pc);
    const auto &insts =
        prog.functions[loc.func].blocks[loc.block].insts;
    for (int i = loc.index - 1; i >= 0; --i) {
        const ir::Inst &inst = insts[i];
        if (inst.dst != store->b.reg)
            continue;
        if (inst.op == ir::Op::Bin &&
            inst.kind == sym::ExprKind::Or && inst.b.isImm()) {
            return inst.b.imm;
        }
        return std::nullopt;
    }
    return std::nullopt;
}

} // namespace

HeuristicResult
HeuristicClassifier::classify(const race::RaceReport &race) const
{
    HeuristicResult r;

    // Statistics counter: a racing increment.
    if ((race.first.is_write && isCounterIncrement(prog, race.first.pc)) ||
        (race.second.is_write &&
         isCounterIncrement(prog, race.second.pc))) {
        r.verdict = HeuristicVerdict::LikelyHarmless;
        r.pattern = BenignPattern::StatisticsCounter;
        return r;
    }

    // Redundant writes of the same constant.
    if (race.first.is_write && race.second.is_write) {
        auto c1 = storedConstant(prog, race.first.pc);
        auto c2 = storedConstant(prog, race.second.pc);
        if (c1 && c2 && *c1 == *c2) {
            r.verdict = HeuristicVerdict::LikelyHarmless;
            r.pattern = BenignPattern::RedundantWrite;
            return r;
        }
        // Disjoint bit manipulation.
        auto m1 = orMask(prog, race.first.pc);
        auto m2 = orMask(prog, race.second.pc);
        if (m1 && m2 && (*m1 & *m2) == 0) {
            r.verdict = HeuristicVerdict::LikelyHarmless;
            r.pattern = BenignPattern::DisjointBits;
            return r;
        }
    }
    return r;
}

} // namespace portend::baseline
