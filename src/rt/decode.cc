#include "rt/decode.h"

#include <mutex>

#include "support/hash.h"
#include "support/logging.h"

namespace portend::rt {

namespace {

PreemptClass
preemptClassOf(ir::Op op)
{
    switch (op) {
      case ir::Op::MutexLock:
      case ir::Op::MutexUnlock:
      case ir::Op::CondWait:
      case ir::Op::CondSignal:
      case ir::Op::CondBroadcast:
      case ir::Op::BarrierWait:
      case ir::Op::ThreadCreate:
      case ir::Op::ThreadJoin:
      case ir::Op::Yield:
      case ir::Op::Sleep:
        return PreemptClass::Always;
      case ir::Op::Load:
      case ir::Op::Store:
      case ir::Op::AtomicRmW:
        return PreemptClass::Memory;
      default:
        return PreemptClass::Never;
    }
}

void
decodeOperand(const ir::Operand &o, std::int32_t &slot,
              std::int64_t &imm)
{
    if (o.isReg()) {
        slot = o.reg;
    } else if (o.isImm()) {
        slot = kOpImm;
        imm = o.imm;
    } else {
        slot = kOpAbsent;
    }
}

/** Accumulator for programFingerprint. */
struct Fp
{
    std::uint64_t h = kFnvOffset;
    void add(std::uint64_t v) { h = hashCombine(h, v); }
    void addI(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(const std::string &s) { h = fnv1a(s, h); add(s.size()); }
};

} // namespace

std::uint64_t
programFingerprint(const ir::Program &p)
{
    Fp fp;
    fp.add(p.name);
    fp.addI(p.entry);
    fp.add(p.globals.size());
    for (const auto &g : p.globals) {
        fp.add(g.name);
        fp.addI(g.size);
        fp.add(g.init.size());
        for (std::int64_t v : g.init)
            fp.addI(v);
    }
    for (const auto &names :
         {p.mutex_names, p.cond_names, p.barrier_names}) {
        fp.add(names.size());
        for (const auto &n : names)
            fp.add(n);
    }
    fp.add(p.barrier_counts.size());
    for (int c : p.barrier_counts)
        fp.addI(c);
    fp.add(p.inputs.size());
    for (const auto &in : p.inputs) {
        fp.add(in.name);
        fp.addI(in.lo);
        fp.addI(in.hi);
    }
    fp.add(p.functions.size());
    for (const auto &fn : p.functions) {
        fp.add(fn.name);
        fp.addI(fn.num_params);
        fp.addI(fn.num_regs);
        fp.add(fn.blocks.size());
        for (const auto &bb : fn.blocks) {
            fp.add(bb.name);
            fp.add(bb.insts.size());
            for (const auto &in : bb.insts) {
                fp.addI(static_cast<int>(in.op));
                fp.addI(in.dst);
                for (const ir::Operand *o : {&in.a, &in.b, &in.c}) {
                    fp.addI(static_cast<int>(o->kind));
                    fp.addI(o->reg);
                    fp.addI(o->imm);
                }
                fp.addI(static_cast<int>(in.kind));
                fp.addI(static_cast<int>(in.width));
                fp.addI(in.gid);
                fp.addI(in.sid);
                fp.addI(in.sid2);
                fp.addI(in.fid);
                fp.addI(in.then_block);
                fp.addI(in.else_block);
                fp.add(in.text);
                fp.addI(in.lo);
                fp.addI(in.hi);
                fp.add(in.loc.file);
                fp.addI(in.loc.line);
                fp.addI(in.pc);
            }
        }
    }
    return fp.h;
}

namespace {

/** The pre-first-step state of @p p over its decode @p d. */
VmState
buildPristine(const ir::Program &p, const DecodedProgram &d)
{
    VmState fresh;

    // Memory image: assemble all cells locally, build pages in bulk.
    std::vector<Value> cells;
    cells.reserve(static_cast<std::size_t>(d.num_cells));
    for (const auto &g : p.globals) {
        for (int i = 0; i < g.size; ++i) {
            std::int64_t init =
                i < static_cast<int>(g.init.size()) ? g.init[i] : 0;
            cells.push_back(Value::ofConst(init));
        }
    }
    fresh.mem = MemImage(std::move(cells));

    fresh.mutexes.assign(p.mutex_names.size(), MutexState{});
    fresh.conds.assign(p.cond_names.size(), CondState{});
    BarrierState empty_barrier;
    fresh.barriers.assign(p.barrier_names.size(), empty_barrier);

    // Main thread.
    ThreadState main;
    main.tid = 0;
    Frame f;
    f.func = p.entry;
    f.ip = 0;
    f.reg_base = 0;
    main.stack.rw().push_back(f);
    main.regs.rw().resize(
        static_cast<std::size_t>(p.function(p.entry).num_regs));
    main.counts.rw().resize(
        static_cast<std::size_t>(d.num_insts + d.num_cells));
    fresh.threads.push_back(std::move(main));
    fresh.counter_stride = d.num_insts;
    return fresh;
}

std::shared_ptr<const DecodedProgram>
buildDecoded(const ir::Program &p)
{
    auto dp = std::make_shared<DecodedProgram>();
    dp->num_insts = p.numInsts();
    dp->num_cells = p.numCells();
    dp->entry = p.entry;
    dp->funcs.reserve(p.functions.size());

    for (const auto &fn : p.functions) {
        DecodedFunction df;
        df.num_regs = fn.num_regs;
        df.num_params = fn.num_params;
        df.block_start.reserve(fn.blocks.size());
        std::int32_t ip = 0;
        for (const auto &bb : fn.blocks) {
            df.block_start.push_back(ip);
            ip += static_cast<std::int32_t>(bb.insts.size());
        }
        df.insts.reserve(static_cast<std::size_t>(ip));
        for (const auto &bb : fn.blocks) {
            for (const auto &in : bb.insts) {
                DecodedInst di;
                di.op = in.op;
                di.preempt = preemptClassOf(in.op);
                di.kind = in.kind;
                di.width = in.width;
                di.dst = in.dst;
                decodeOperand(in.a, di.a, di.a_imm);
                decodeOperand(in.b, di.b, di.b_imm);
                decodeOperand(in.c, di.c, di.c_imm);
                di.pc = in.pc;
                di.gid = in.gid;
                if (in.gid >= 0) {
                    di.cell_base = p.cellId(in.gid, 0);
                    di.gsize = p.global(in.gid).size;
                }
                di.sid = in.sid;
                di.sid2 = in.sid2;
                di.fid = in.fid;
                if (in.then_block >= 0)
                    di.then_ip = df.block_start[static_cast<
                        std::size_t>(in.then_block)];
                if (in.else_block >= 0)
                    di.else_ip = df.block_start[static_cast<
                        std::size_t>(in.else_block)];
                if (in.fid >= 0) {
                    const ir::Function &callee = p.function(in.fid);
                    di.callee_regs = callee.num_regs;
                    di.callee_params = callee.num_params;
                }
                di.lo = in.lo;
                di.hi = in.hi;
                di.text = in.text;
                di.loc = in.loc;
                df.insts.push_back(std::move(di));
            }
        }
        dp->funcs.push_back(std::move(df));
    }
    dp->pristine = buildPristine(p, *dp);
    return dp;
}

} // namespace

std::shared_ptr<const DecodedProgram>
decodeProgram(const ir::Program &p)
{
    PORTEND_ASSERT(p.finalized(), "decoding a non-finalized program");

    // Guards every program's slot. The decode is built outside it;
    // when two threads miss on one program at once, both build and
    // the first store wins, so every interpreter shares one decode.
    static std::mutex mu;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (p.runtime_cache)
            return std::static_pointer_cast<const DecodedProgram>(
                p.runtime_cache);
    }
    std::shared_ptr<const DecodedProgram> fresh = buildDecoded(p);
    std::lock_guard<std::mutex> lock(mu);
    if (!p.runtime_cache)
        p.runtime_cache = fresh;
    return std::static_pointer_cast<const DecodedProgram>(
        p.runtime_cache);
}

int
framePc(const ir::Function &fn, int ip)
{
    for (const auto &bb : fn.blocks) {
        if (ip < static_cast<int>(bb.insts.size()))
            return bb.insts[static_cast<std::size_t>(ip)].pc;
        ip -= static_cast<int>(bb.insts.size());
    }
    return -1;
}

} // namespace portend::rt
