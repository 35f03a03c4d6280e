#include "rt/staticinfo.h"

namespace portend::rt {

StaticInfo::StaticInfo(const ir::Program &p)
{
    const std::size_t n = p.functions.size();
    may_write.assign(n, {});
    std::vector<std::set<ir::FuncId>> callees(n);

    for (std::size_t f = 0; f < n; ++f) {
        for (const auto &b : p.functions[f].blocks) {
            for (const auto &inst : b.insts) {
                switch (inst.op) {
                  case ir::Op::Store:
                  case ir::Op::AtomicRmW:
                    may_write[f].insert(inst.gid);
                    break;
                  case ir::Op::Call:
                  case ir::Op::ThreadCreate:
                    callees[f].insert(inst.fid);
                    break;
                  default:
                    break;
                }
            }
        }
    }

    // Transitive closure by fixpoint; programs are small, so the
    // quadratic loop is fine.
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t f = 0; f < n; ++f) {
            for (ir::FuncId callee : callees[f]) {
                for (ir::GlobalId g : may_write[callee]) {
                    if (may_write[f].insert(g).second)
                        changed = true;
                }
            }
        }
    }
}

const std::set<ir::GlobalId> &
StaticInfo::mayWrite(ir::FuncId f) const
{
    return may_write.at(f);
}

} // namespace portend::rt
