/**
 * @file
 * The "flip gadget" test program, shared by the explorer and
 * scheduler suites.
 */

#ifndef PORTEND_TESTS_FLIP_GADGET_H
#define PORTEND_TESTS_FLIP_GADGET_H

#include <string>
#include <vector>

#include "ir/builder.h"

namespace portend::tests {

/**
 * A "flip gadget": @p workers threads each store to one shared cell
 * (the benign race that anchors stage 3), run a private preamble of
 * `index * stride` increments, then append their index to one shared
 * log cell. The post-race class count grows combinatorially, and
 * uniform sampling favours short-preamble-first orders: the regime
 * the dpor explorer exists for.
 */
inline ir::Program
flipGadget(const std::string &name, int workers, int stride)
{
    using ir::I;
    using ir::R;
    using KK = sym::ExprKind;
    ir::ProgramBuilder pb(name);
    ir::GlobalId sync = pb.global("sync_cell");
    ir::GlobalId log = pb.global("log_cell");
    std::vector<std::string> names;
    for (int w = 0; w < workers; ++w) {
        std::string fn = "w" + std::to_string(w);
        names.push_back(fn);
        ir::GlobalId priv = pb.global(fn + "_priv");
        auto &f = pb.function(fn, 1);
        f.to(f.block("e"));
        f.store(sync, I(0), I(1)); // the anchoring benign race
        for (int i = 0; i < w * stride; ++i) {
            ir::Reg v = f.load(priv);
            f.store(priv, I(0), R(f.bin(KK::Add, R(v), I(1))));
        }
        ir::Reg lv = f.load(log);
        f.store(log, I(0),
                R(f.bin(KK::Add, R(f.bin(KK::Mul, R(lv), I(10))),
                        I(w + 1))));
        f.retVoid();
    }
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    std::vector<ir::Reg> tids;
    for (const auto &n : names)
        tids.push_back(m.threadCreate(n, I(0)));
    for (ir::Reg t : tids)
        m.threadJoin(R(t));
    m.outputStr("done");
    m.halt();
    return pb.build();
}

} // namespace portend::tests

#endif // PORTEND_TESTS_FLIP_GADGET_H
