/**
 * @file
 * One-time instruction decode pass for the interpreter hot loop.
 *
 * The original step loop re-derived everything per instruction: it
 * indexed function → block → instruction, re-classified the opcode as
 * a preemption point, materialized immediates as Const expression
 * nodes, and chased `then_block`/`else_block` through the block
 * table. The decode pass (valgrind's translate-to-ucode idiom) does
 * that work once per program: each function's blocks are flattened
 * into one DecodedInst array addressed by a flat instruction pointer,
 * with operands pre-classified (register index vs inline immediate),
 * branch targets resolved to flat ips, call linkage (callee register
 * and parameter counts) cached, and the preemption class precomputed.
 *
 * Decoded programs are immutable and shared: a program is decoded
 * once per ir::Program object, into its runtime_cache slot, and
 * every interpreter running that object or a copy of it shares the
 * one DecodedProgram (the parallel classifier builds many
 * interpreters per program). DecodedInst is fully self-contained —
 * it copies the text/loc fields it needs and holds no pointers into
 * the source ir::Program — so a decode an interpreter holds can
 * outlive the Program object it was decoded from. The decode also
 * carries the program's pristine (pre-first-step) VmState, built
 * once with it, so resetting an interpreter is a copy-on-write copy
 * of that state.
 */

#ifndef PORTEND_RT_DECODE_H
#define PORTEND_RT_DECODE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/program.h"
#include "rt/vmstate.h"

namespace portend::rt {

/** Preemption classification of an opcode (see
 *  Interpreter::isPreemptionPoint for the dynamic part). */
enum class PreemptClass : std::uint8_t {
    Never,  ///< plain computation
    Always, ///< sync / thread ops, yield, sleep
    Memory, ///< preemption point iff preempt_on_memory
};

/** Operand encoding in a DecodedInst: a register index is >= 0. */
constexpr std::int32_t kOpImm = -1;    ///< inline immediate operand
constexpr std::int32_t kOpAbsent = -2; ///< operand not present

/**
 * One decoded instruction. Field meanings follow ir::Inst, with
 * block-relative targets replaced by flat instruction pointers and
 * memory/call metadata resolved.
 */
struct DecodedInst
{
    ir::Op op = ir::Op::Nop;
    PreemptClass preempt = PreemptClass::Never;
    sym::ExprKind kind = sym::ExprKind::Add;
    sym::Width width = sym::Width::I64;

    ir::Reg dst = -1;

    /** Operand a/b/c: register index, kOpImm, or kOpAbsent. */
    std::int32_t a = kOpAbsent;
    std::int32_t b = kOpAbsent;
    std::int32_t c = kOpAbsent;
    std::int64_t a_imm = 0;
    std::int64_t b_imm = 0;
    std::int64_t c_imm = 0;

    /** Global program counter (decoded-site id; dense 0..n-1). */
    std::int32_t pc = -1;

    /** Memory ops: global id, flat id of its cell 0, and its size. */
    ir::GlobalId gid = -1;
    std::int32_t cell_base = -1;
    std::int32_t gsize = 0;

    ir::SyncId sid = -1;
    ir::SyncId sid2 = -1;
    ir::FuncId fid = -1;

    /** Br/Jmp targets as flat ips within the function. */
    std::int32_t then_ip = -1;
    std::int32_t else_ip = -1;

    /** Call/ThreadCreate: callee frame shape. */
    std::int32_t callee_regs = 0;
    std::int32_t callee_params = 0;

    std::int64_t lo = INT64_MIN;
    std::int64_t hi = INT64_MAX;

    std::string text;
    ir::SourceLoc loc;
};

/** One function, blocks concatenated in declaration order. */
struct DecodedFunction
{
    std::vector<DecodedInst> insts;
    /** Flat ip of each block's first instruction. */
    std::vector<std::int32_t> block_start;
    std::int32_t num_regs = 0;
    std::int32_t num_params = 0;
};

/** A fully decoded program. */
struct DecodedProgram
{
    std::vector<DecodedFunction> funcs;
    int num_insts = 0; ///< dense pc space size
    int num_cells = 0; ///< flat memory cell count
    ir::FuncId entry = 0;

    /** State before the first step: globals at their initial
     *  values, main ready at its entry, default RNG (Interpreter::
     *  reset seeds it). Shared copy-on-write by every interpreter. */
    VmState pristine;

    const DecodedFunction &
    function(ir::FuncId f) const
    {
        return funcs[static_cast<std::size_t>(f)];
    }
};

/**
 * The decode of @p p, built on first use and kept in its
 * runtime_cache slot (a copy of a program shares the decode already
 * in the slot). @p p must be finalized. Thread-safe.
 */
std::shared_ptr<const DecodedProgram> decodeProgram(const ir::Program &p);

/**
 * Semantic fingerprint of a finalized program (stable across
 * processes); the program half of the campaign and fuzz cache keys.
 */
std::uint64_t programFingerprint(const ir::Program &p);

/**
 * Map a flat instruction pointer within @p fn back to the dense
 * global pc, walking the block table (replay recording uses this to
 * name the next instruction of a suspended frame).
 */
int framePc(const ir::Function &fn, int ip);

} // namespace portend::rt

#endif // PORTEND_RT_DECODE_H
