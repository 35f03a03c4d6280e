/**
 * @file
 * PIL program container: functions, basic blocks, globals, sync
 * object declarations.
 */

#ifndef PORTEND_IR_PROGRAM_H
#define PORTEND_IR_PROGRAM_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/inst.h"

namespace portend::ir {

/** A straight-line sequence of instructions ending in a terminator. */
struct BasicBlock
{
    std::string name;
    std::vector<Inst> insts;
};

/** A PIL function. */
struct Function
{
    std::string name;
    int num_params = 0;   ///< parameters arrive in registers 0..n-1
    int num_regs = 0;     ///< total virtual registers
    std::vector<BasicBlock> blocks;

    /** Block by id (checked). */
    const BasicBlock &block(BlockId b) const { return blocks.at(b); }
};

/** A named global array of cells (the unit of race detection). */
struct Global
{
    std::string name;
    int size = 1;
    std::vector<std::int64_t> init; ///< initial values (0-filled if short)
};

/**
 * A declared program input: a named environment read with a bounded
 * domain [lo, hi]. Declarations let tools (CLI `--sym-input`, the
 * fuzzer, benches) discover which inputs a program reads without
 * scanning instruction streams; `Op::Input` instructions reference
 * declarations by name.
 */
struct InputDecl
{
    std::string name;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/**
 * A complete PIL program.
 *
 * Finalize() assigns a unique linear program counter to every
 * instruction; analyses use pcs to name racing accesses the way the
 * paper's traces do (`RaceyAccessT1:pc1`).
 */
class Program
{
  public:
    std::string name;
    std::vector<Function> functions;
    std::vector<Global> globals;
    std::vector<std::string> mutex_names;
    std::vector<std::string> cond_names;
    std::vector<std::string> barrier_names;
    std::vector<int> barrier_counts;     ///< participant count per barrier
    std::vector<InputDecl> inputs;       ///< declared environment inputs
    FuncId entry = -1;

    /** Function id by name; -1 when absent. */
    FuncId findFunction(const std::string &fname) const;

    /** Function by id (checked). */
    const Function &function(FuncId f) const { return functions.at(f); }

    /** Global by id (checked). */
    const Global &global(GlobalId g) const { return globals.at(g); }

    /**
     * Assign linear pcs and build the pc → instruction index.
     * Must be called once after construction, before execution.
     */
    void finalize();

    /** True when finalize() ran. */
    bool finalized() const { return !pc_index.empty() || numInsts() == 0; }

    /** Total instruction count. */
    int numInsts() const;

    /** Locate the instruction with linear pc @p pc (checked). */
    const Inst &instAt(int pc) const;

    /** (function, block, index) triple for linear pc @p pc. */
    struct PcLoc
    {
        FuncId func;
        BlockId block;
        int index;
    };

    /** Decode @p pc into its function/block/index triple (checked). */
    PcLoc pcLoc(int pc) const;

    /** Total number of memory cells across all globals. */
    int numCells() const;

    /** Flat cell id of (gid, idx); the unit of race detection. */
    int cellId(GlobalId gid, int idx) const;

    /** Render flat cell id back to "global[idx]" for reports. */
    std::string cellName(int cell) const;

    /** Global id owning flat cell @p cell (-1 when out of range). */
    GlobalId cellGlobal(int cell) const;

    /**
     * Opaque slot for the runtime's decoded form, the one decode of
     * this object (rt::decodeProgram). Populated lazily after
     * finalize() and cleared by it; copies share the decode, which
     * is sound because it depends only on the
     * (immutable-once-finalized) program content, and so do all the
     * interpreters that run the object. All access is synchronized
     * inside decode.cc — never touch this slot elsewhere.
     */
    mutable std::shared_ptr<const void> runtime_cache;

  private:
    std::vector<PcLoc> pc_index;
    std::vector<int> global_base; ///< flat cell base per global
    int total_cells = 0;
};

} // namespace portend::ir

#endif // PORTEND_IR_PROGRAM_H
