#include "ir/program.h"

#include <algorithm>

#include "support/logging.h"
#include "support/str.h"

namespace portend::ir {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::ConstOp: return "const";
      case Op::Mov: return "mov";
      case Op::Bin: return "bin";
      case Op::Un: return "un";
      case Op::Select: return "select";
      case Op::Load: return "load";
      case Op::Store: return "store";
      case Op::Br: return "br";
      case Op::Jmp: return "jmp";
      case Op::Call: return "call";
      case Op::Ret: return "ret";
      case Op::Halt: return "halt";
      case Op::ThreadCreate: return "thread_create";
      case Op::ThreadJoin: return "thread_join";
      case Op::MutexLock: return "mutex_lock";
      case Op::MutexUnlock: return "mutex_unlock";
      case Op::CondWait: return "cond_wait";
      case Op::CondSignal: return "cond_signal";
      case Op::CondBroadcast: return "cond_broadcast";
      case Op::BarrierWait: return "barrier_wait";
      case Op::AtomicRmW: return "atomic_rmw";
      case Op::Yield: return "yield";
      case Op::Sleep: return "sleep";
      case Op::Input: return "input";
      case Op::GetTime: return "get_time";
      case Op::Output: return "output";
      case Op::OutputStr: return "output_str";
      case Op::Assert: return "assert";
    }
    return "?";
}

bool
isTerminator(Op op)
{
    switch (op) {
      case Op::Br:
      case Op::Jmp:
      case Op::Ret:
      case Op::Halt:
        return true;
      default:
        return false;
    }
}

std::string
SourceLoc::toString() const
{
    std::string out = file.empty() ? "<unknown>" : file;
    out += ':';
    appendNum(out, line);
    return out;
}

FuncId
Program::findFunction(const std::string &fname) const
{
    for (std::size_t i = 0; i < functions.size(); ++i) {
        if (functions[i].name == fname)
            return static_cast<FuncId>(i);
    }
    return -1;
}

void
Program::finalize()
{
    runtime_cache.reset(); // pcs may move: drop any stale decode
    pc_index.clear();
    int pc = 0;
    for (std::size_t f = 0; f < functions.size(); ++f) {
        for (std::size_t b = 0; b < functions[f].blocks.size(); ++b) {
            auto &insts = functions[f].blocks[b].insts;
            for (std::size_t i = 0; i < insts.size(); ++i) {
                insts[i].pc = pc++;
                pc_index.push_back({static_cast<FuncId>(f),
                                    static_cast<BlockId>(b),
                                    static_cast<int>(i)});
            }
        }
    }
    global_base.clear();
    total_cells = 0;
    for (const auto &g : globals) {
        global_base.push_back(total_cells);
        total_cells += g.size;
    }
}

int
Program::numInsts() const
{
    int n = 0;
    for (const auto &f : functions) {
        for (const auto &b : f.blocks)
            n += static_cast<int>(b.insts.size());
    }
    return n;
}

const Inst &
Program::instAt(int pc) const
{
    PcLoc l = pcLoc(pc);
    return functions[l.func].blocks[l.block].insts[l.index];
}

Program::PcLoc
Program::pcLoc(int pc) const
{
    PORTEND_ASSERT(pc >= 0 &&
                       pc < static_cast<int>(pc_index.size()),
                   "pc out of range: ", pc);
    return pc_index[pc];
}

int
Program::numCells() const
{
    return total_cells;
}

int
Program::cellId(GlobalId gid, int idx) const
{
    PORTEND_ASSERT(gid >= 0 &&
                       gid < static_cast<int>(global_base.size()),
                   "bad global id ", gid);
    return global_base[gid] + idx;
}

GlobalId
Program::cellGlobal(int cell) const
{
    // global_base ascends, so the owner is the last global based at
    // or below the cell. An empty global shares its successor's base
    // and precedes it, so the search lands past it.
    auto it =
        std::upper_bound(global_base.begin(), global_base.end(), cell);
    if (it == global_base.begin())
        return -1;
    const auto g = static_cast<std::size_t>(it - global_base.begin()) - 1;
    if (cell >= global_base[g] + globals[g].size)
        return -1;
    return static_cast<GlobalId>(g);
}

std::string
Program::cellName(int cell) const
{
    const GlobalId g = cellGlobal(cell);
    if (g < 0)
        return "<cell " + std::to_string(cell) + ">";
    const Global &gl = globals[static_cast<std::size_t>(g)];
    std::string out = gl.name;
    if (gl.size > 1) {
        out += '[';
        appendNum(out, cell - global_base[static_cast<std::size_t>(g)]);
        out += ']';
    }
    return out;
}

} // namespace portend::ir
