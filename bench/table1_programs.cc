/**
 * @file
 * Table 1: programs analyzed with Portend — size, language, forked
 * threads. Prints the paper's reported LOC for the modeled original
 * alongside the PIL model's own size.
 */

#include "bench/common.h"

using namespace portend;

namespace {

/**
 * The model's size in lines of an assembler-style listing: a program
 * header, one line per global and synchronization object, and per
 * function a blank line, a header, one line per block label and one
 * per instruction.
 */
int
listingLines(const ir::Program &p)
{
    std::size_t lines = 1 + p.globals.size() + p.mutex_names.size() +
                        p.cond_names.size() + p.barrier_names.size();
    for (const ir::Function &f : p.functions) {
        lines += 2 + f.blocks.size();
        for (const ir::BasicBlock &b : f.blocks)
            lines += b.insts.size();
    }
    return static_cast<int>(lines);
}

} // namespace

int
main()
{
    std::printf("Table 1: Programs analyzed with Portend\n");
    bench::rule();
    std::printf("%-18s %12s %10s %10s %12s\n", "Program",
                "Size (LOC)", "Language", "# Forked", "Model (PIL)");
    bench::rule();
    for (const auto &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        std::printf("%-18s %12d %10s %10d %12d\n", w.name.c_str(),
                    w.paper_loc, w.language.c_str(),
                    w.forked_threads,
                    listingLines(w.program));
    }
    bench::rule();
    std::printf("Size (LOC) reproduces the paper's Table 1 column; "
                "Model (PIL) is the\ntextual line count of this "
                "repository's executable model.\n");
    return 0;
}
