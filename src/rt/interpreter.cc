#include "rt/interpreter.h"

#include "support/logging.h"
#include "support/observe.h"
#include "support/trace.h"
#include "sym/simplify.h"

// Every opcode, in ir::Op declaration order; the segment loop's
// switch jumps to one L_<name> label per entry.
#define PORTEND_OP_LIST(X)                                            \
    X(Nop) X(ConstOp) X(Mov) X(Bin) X(Un) X(Select) X(Load) X(Store)  \
    X(Br) X(Jmp) X(Call) X(Ret) X(Halt) X(ThreadCreate)               \
    X(ThreadJoin) X(MutexLock) X(MutexUnlock) X(CondWait)             \
    X(CondSignal) X(CondBroadcast) X(BarrierWait) X(AtomicRmW)        \
    X(Yield) X(Sleep) X(Input) X(GetTime) X(Output) X(OutputStr)      \
    X(Assert)

namespace portend::rt {

static_assert(static_cast<int>(ir::Op::Assert) == 28,
              "PORTEND_OP_LIST is out of sync with ir::Op");

Interpreter::Interpreter(const ir::Program &p, ExecOptions o)
    : prog(p), dec(decodeProgram(p)), opts(std::move(o))
{
    PORTEND_ASSERT(p.finalized(), "program must be finalized");
    reset();
}

Interpreter::Interpreter(const ir::Program &p, ExecOptions o,
                         VmState start)
    : prog(p), dec(decodeProgram(p)), opts(std::move(o)),
      st(std::move(start))
{}

void
Interpreter::reset()
{
    st = dec->pristine;
    st.rng = Rng(opts.rng_seed);
}

bool
Interpreter::isPreemptionPoint(const DecodedInst &di) const
{
    return di.preempt == PreemptClass::Always ||
           (di.preempt == PreemptClass::Memory && opts.preempt_on_memory);
}

void
Interpreter::publish(Event ev)
{
    ev.step = st.global_step;
    for (EventSink *s : sinks)
        s->onEvent(ev);
    if (policy)
        policy->onEvent(ev);
    if (active_stop && active_stop->after_pair &&
        (ev.kind == EventKind::MemRead ||
         ev.kind == EventKind::MemWrite)) {
        const StopSpec::PairPoint &pp = *active_stop->after_pair;
        const StopSpec::PairPoint::Access &want =
            pair_stage == 0 ? pp.first : pp.then;
        if (ev.cell == pp.cell && ev.tid == want.tid &&
            (ev.kind == EventKind::MemWrite) == want.write) {
            if (pair_stage == 0)
                pair_stage = 1;
            else
                stop_pair_fired = true;
        }
    }
}

void
Interpreter::finish(RunOutcome o, ThreadId tid, int pc,
                    std::string detail)
{
    st.outcome = o;
    st.outcome_tid = tid;
    st.outcome_pc = pc;
    st.outcome_detail = std::move(detail);
}

bool
Interpreter::decideCondition(const sym::ExprPtr &cond, DecisionKind kind)
{
    st.symbolic_branches += 1;
    bool take;
    if (st.hasForcedDecision()) {
        take = st.takeForcedDecision();
    } else if (hook) {
        take = hook->decide(*this, cond, kind);
    } else {
        PORTEND_FATAL("symbolic decision (", static_cast<int>(kind),
                      ") reached without a fork hook; run with "
                      "concrete inputs or install exec::Executor");
    }
    st.path.add(take ? cond : sym::negate(cond));
    return take;
}

bool
Interpreter::resolveIndex(ThreadId tid, const DecodedInst &di,
                          const Value &idx, int size, std::int64_t &out)
{
    if (idx.isConcrete()) {
        std::int64_t v = idx.constValue();
        if (v < 0 || v >= size) {
            finish(RunOutcome::CrashOob, tid, di.pc,
                   "index " + std::to_string(v) + " out of bounds of " +
                       prog.global(di.gid).name + "[" +
                       std::to_string(size) + "] at " +
                       di.loc.toString());
            return false;
        }
        out = v;
        return true;
    }

    const sym::ExprPtr &idxE = idx.expr();
    sym::ExprPtr in_bounds = sym::Expr::binary(
        sym::ExprKind::LAnd,
        sym::mkSle(sym::mkConst(0), idxE),
        sym::mkSlt(idxE, sym::mkConst(size)));
    if (!decideCondition(in_bounds, DecisionKind::Bounds)) {
        finish(RunOutcome::CrashOob, tid, di.pc,
               "symbolic index out of bounds of " +
                   prog.global(di.gid).name + " at " +
                   di.loc.toString());
        return false;
    }
    PORTEND_ASSERT(hook, "bounds decision without hook");
    std::int64_t v = hook->concretize(*this, idxE);
    PORTEND_ASSERT(v >= 0 && v < size, "concretized index escaped");
    st.path.add(sym::mkEq(idxE, sym::mkConst(v)));
    out = v;
    return true;
}

void
Interpreter::advance(ThreadState &t)
{
    t.stack.rw().back().ip += 1;
}

bool
Interpreter::tryLock(ThreadId tid, ir::SyncId m)
{
    MutexState &mu = st.mutexes.at(static_cast<std::size_t>(m));
    if (mu.owner == -1) {
        mu.owner = tid;
        return true;
    }
    if (mu.owner == tid) {
        finish(RunOutcome::Deadlock, tid, fetchD(st.thread(tid)).pc,
               "recursive acquisition of mutex " + prog.mutex_names[m]);
        return false;
    }
    ThreadState &t = st.thread(tid);
    t.status = ThreadStatus::BlockedMutex;
    t.wait_sync = m;
    for (ThreadId w : mu.waiters) {
        if (w == tid)
            return false;
    }
    mu.waiters.push_back(tid);
    return false;
}

void
Interpreter::unlockMutex(ThreadId tid, ir::SyncId m, int pc,
                         const ir::SourceLoc &loc)
{
    MutexState &mu = st.mutexes.at(static_cast<std::size_t>(m));
    if (mu.owner != tid) {
        finish(RunOutcome::AssertFail, tid, pc,
               "unlock of mutex " + prog.mutex_names[m] +
                   " not owned by thread");
        return;
    }
    mu.owner = -1;
    if (!mu.waiters.empty()) {
        // Barging semantics: wake the first waiter; it re-attempts
        // the acquisition when scheduled and may lose the race.
        ThreadId w = mu.waiters.front();
        mu.waiters.erase(mu.waiters.begin());
        ThreadState &wt = st.thread(w);
        wt.status = ThreadStatus::Runnable;
        wt.wait_sync = -1;
    }
    Event ev;
    ev.kind = EventKind::MutexUnlock;
    ev.tid = tid;
    ev.pc = pc;
    ev.sid = m;
    ev.loc = &loc;
    publish(std::move(ev));
}

void
Interpreter::exitThread(ThreadId tid)
{
    ThreadState &t = st.thread(tid);
    t.status = ThreadStatus::Exited;

    Event ev;
    ev.kind = EventKind::ThreadExit;
    ev.tid = tid;
    publish(std::move(ev));

    // Wake joiners; their pending ThreadJoin completes now.
    for (auto &joiner : st.threads) {
        if (joiner.status == ThreadStatus::BlockedJoin &&
            joiner.wait_tid == tid) {
            joiner.status = ThreadStatus::Runnable;
            joiner.wait_tid = -1;
            const DecodedInst &ji = fetchD(joiner);
            advance(joiner);
            Event je;
            je.kind = EventKind::ThreadJoin;
            je.tid = joiner.tid;
            je.other = tid;
            je.pc = ji.pc;
            je.loc = &ji.loc;
            publish(std::move(je));
        }
    }

    // Returning from main terminates the program (C semantics).
    if (tid == 0 && !st.finished())
        finish(RunOutcome::Exited, tid, -1, "main returned");
}

bool
Interpreter::checkStops(ThreadId tid, const DecodedInst &di)
{
    // Every matching point is recorded (not just the first): the
    // checkpoint ladder stops one shared replay at many clusters'
    // pre-race points and must learn which of them this stop
    // satisfies.
    bool hit = false;
    if (!active_stop->before_cell.empty() &&
        (di.op == ir::Op::Load || di.op == ir::Op::Store ||
         di.op == ir::Op::AtomicRmW)) {
        const ThreadState &t = st.thread(tid);
        Value idx = readOperand(t, t.stack.back().reg_base, di.a,
                                di.a_imm);
        if (idx.isConcrete()) {
            std::int64_t iv = idx.constValue();
            if (iv >= 0 && iv < di.gsize) {
                int cell = di.cell_base + static_cast<int>(iv);
                for (std::size_t pi = 0;
                     pi < active_stop->before_cell.size(); ++pi) {
                    const auto &p = active_stop->before_cell[pi];
                    if (p.tid != tid || p.cell != cell)
                        continue;
                    if (st.cellAccessCount(tid, cell) + 1 ==
                        p.occurrence) {
                        hit = true;
                        fired_before_cell.push_back(pi);
                    }
                }
            }
        }
    }
    return hit;
}

void
Interpreter::executeSlow(ThreadId tid, const DecodedInst &di)
{
    switch (di.op) {
      case ir::Op::ThreadCreate: {
        ThreadState &t = st.thread(tid);
        Value arg = readOperand(t, t.stack.back().reg_base, di.a,
                                di.a_imm);
        advance(t);

        ThreadState child;
        child.tid = static_cast<ThreadId>(st.threads.size());
        Frame cf;
        cf.func = di.fid;
        cf.ip = 0;
        cf.reg_base = 0;
        child.stack.rw().push_back(cf);
        child.regs.rw().resize(
            static_cast<std::size_t>(di.callee_regs));
        if (di.callee_params > 0)
            child.regs.rw()[0] = std::move(arg);
        child.counts.rw().resize(
            static_cast<std::size_t>(dec->num_insts + dec->num_cells));
        ThreadId child_tid = child.tid;
        st.threads.push_back(std::move(child));

        // Reacquire after the push_back (vector may reallocate).
        ThreadState &t2 = st.thread(tid);
        if (di.dst >= 0) {
            t2.regs.rw()[static_cast<std::size_t>(
                t2.stack.back().reg_base + di.dst)] =
                Value::ofConst(child_tid);
        }
        Event ev;
        ev.kind = EventKind::ThreadCreate;
        ev.tid = tid;
        ev.pc = di.pc;
        ev.other = child_tid;
        ev.loc = &di.loc;
        publish(std::move(ev));
        break;
      }

      case ir::Op::ThreadJoin: {
        ThreadState &t = st.thread(tid);
        Value targ = readOperand(t, t.stack.back().reg_base, di.a,
                                 di.a_imm);
        std::int64_t target;
        if (targ.isConcrete()) {
            target = targ.constValue();
        } else {
            PORTEND_ASSERT(hook, "symbolic join target without hook");
            const sym::ExprPtr &te = targ.expr();
            target = hook->concretize(*this, te);
            st.path.add(sym::mkEq(te, sym::mkConst(target)));
        }
        if (target < 0 ||
            target >= static_cast<std::int64_t>(st.threads.size())) {
            finish(RunOutcome::AssertFail, tid, di.pc,
                   "join of invalid thread id " +
                       std::to_string(target));
            return;
        }
        ThreadState &t2 = st.thread(tid);
        if (st.thread(static_cast<ThreadId>(target)).status ==
            ThreadStatus::Exited) {
            advance(t2);
            Event ev;
            ev.kind = EventKind::ThreadJoin;
            ev.tid = tid;
            ev.pc = di.pc;
            ev.other = static_cast<ThreadId>(target);
            ev.loc = &di.loc;
            publish(std::move(ev));
        } else {
            t2.status = ThreadStatus::BlockedJoin;
            t2.wait_tid = static_cast<ThreadId>(target);
        }
        break;
      }

      case ir::Op::MutexLock: {
        if (tryLock(tid, di.sid)) {
            ThreadState &t = st.thread(tid);
            advance(t);
            Event ev;
            ev.kind = EventKind::MutexLock;
            ev.tid = tid;
            ev.pc = di.pc;
            ev.sid = di.sid;
            ev.loc = &di.loc;
            publish(std::move(ev));
        }
        break;
      }

      case ir::Op::MutexUnlock:
        unlockMutex(tid, di.sid, di.pc, di.loc);
        if (!st.finished())
            advance(st.thread(tid));
        break;

      case ir::Op::CondWait: {
        ThreadState &t = st.thread(tid);
        if (!t.cond_relock) {
            if (st.mutexes.at(static_cast<std::size_t>(di.sid2))
                    .owner != tid) {
                finish(RunOutcome::AssertFail, tid, di.pc,
                       "cond_wait without holding mutex " +
                           prog.mutex_names[di.sid2]);
                return;
            }
            unlockMutex(tid, di.sid2, di.pc, di.loc);
            if (st.finished())
                return;
            ThreadState &t2 = st.thread(tid);
            t2.status = ThreadStatus::BlockedCond;
            t2.wait_sync = di.sid;
            st.conds.at(static_cast<std::size_t>(di.sid))
                .waiters.push_back(tid);
        } else {
            // Woken by signal/broadcast; re-acquire the mutex.
            if (tryLock(tid, di.sid2)) {
                ThreadState &t2 = st.thread(tid);
                t2.cond_relock = false;
                advance(t2);
                // The re-acquisition is a real lock operation: emit
                // it so happens-before edges through the mutex hold.
                Event lk;
                lk.kind = EventKind::MutexLock;
                lk.tid = tid;
                lk.pc = di.pc;
                lk.sid = di.sid2;
                lk.loc = &di.loc;
                publish(std::move(lk));
                Event ev;
                ev.kind = EventKind::CondWait;
                ev.tid = tid;
                ev.pc = di.pc;
                ev.sid = di.sid;
                ev.loc = &di.loc;
                publish(std::move(ev));
            }
        }
        break;
      }

      case ir::Op::CondSignal:
      case ir::Op::CondBroadcast: {
        CondState &cv = st.conds.at(static_cast<std::size_t>(di.sid));
        std::size_t wake =
            di.op == ir::Op::CondSignal
                ? (cv.waiters.empty() ? 0 : 1)
                : cv.waiters.size();
        for (std::size_t i = 0; i < wake; ++i) {
            ThreadId w = cv.waiters.front();
            cv.waiters.erase(cv.waiters.begin());
            ThreadState &wt = st.thread(w);
            wt.status = ThreadStatus::Runnable;
            wt.wait_sync = -1;
            wt.cond_relock = true;
        }
        advance(st.thread(tid));
        Event ev;
        ev.kind = EventKind::CondSignal;
        ev.tid = tid;
        ev.pc = di.pc;
        ev.sid = di.sid;
        ev.loc = &di.loc;
        publish(std::move(ev));
        break;
      }

      case ir::Op::BarrierWait: {
        BarrierState &bar =
            st.barriers.at(static_cast<std::size_t>(di.sid));
        bar.arrived += 1;
        if (bar.arrived < prog.barrier_counts[di.sid]) {
            ThreadState &t = st.thread(tid);
            t.status = ThreadStatus::BlockedBarrier;
            t.wait_sync = di.sid;
            bar.waiting.push_back(tid);
        } else {
            // Release everyone, including the arriving thread (the
            // list keeps its capacity for the next generation).
            bar.arrived = 0;
            for (ThreadId w : bar.waiting) {
                ThreadState &wt = st.thread(w);
                wt.status = ThreadStatus::Runnable;
                wt.wait_sync = -1;
                const DecodedInst &wi = fetchD(wt);
                advance(wt);
                Event ev;
                ev.kind = EventKind::BarrierWait;
                ev.tid = w;
                ev.pc = wi.pc;
                ev.sid = di.sid;
                ev.loc = &wi.loc;
                publish(std::move(ev));
            }
            bar.waiting.clear();
            ThreadState &t = st.thread(tid);
            advance(t);
            Event ev;
            ev.kind = EventKind::BarrierWait;
            ev.tid = tid;
            ev.pc = di.pc;
            ev.sid = di.sid;
            ev.loc = &di.loc;
            publish(std::move(ev));
        }
        break;
      }

      case ir::Op::Sleep: {
        ThreadState &t = st.thread(tid);
        Value ticks = readOperand(t, t.stack.back().reg_base, di.a,
                                  di.a_imm);
        st.virtual_time +=
            ticks.isConcrete() ? ticks.constValue() : 1;
        advance(t);
        break;
      }

      case ir::Op::Input: {
        ThreadState &t = st.thread(tid);
        const int rb = t.stack.back().reg_base;
        Value v;
        VmState::EnvRead read;
        read.name = di.text;
        // Named selection: when sym_inputs is set, only matching
        // labels become symbolic (positional cap ignored); an entry
        // with a range overrides the instruction's declared domain.
        const SymInputSpec *spec = nullptr;
        bool make_symbolic = false;
        if (opts.input_mode == InputMode::Symbolic) {
            if (!opts.sym_inputs.empty()) {
                for (const auto &s : opts.sym_inputs) {
                    if (s.name == di.text) {
                        spec = &s;
                        break;
                    }
                }
                make_symbolic = spec != nullptr;
            } else {
                make_symbolic =
                    st.next_symbol < opts.max_symbolic_inputs;
            }
        }
        if (make_symbolic) {
            std::int64_t lo =
                spec && spec->has_range ? spec->lo : di.lo;
            std::int64_t hi =
                spec && spec->has_range ? spec->hi : di.hi;
            int id = st.next_symbol++;
            v = Value(sym::Expr::symbol(di.text, id, sym::Width::I64,
                                        lo, hi));
            read.symbolic = true;
            read.sym_id = id;
            read.lo = lo;
        } else {
            std::size_t cursor = st.env_log.size();
            std::int64_t cv =
                cursor < opts.concrete_inputs.size()
                    ? opts.concrete_inputs[cursor]
                    : di.lo;
            v = Value::ofConst(cv);
            read.value = cv;
        }
        st.env_log.push_back(read);
        t.regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            std::move(v);
        advance(t);
        break;
      }

      case ir::Op::GetTime: {
        ThreadState &t = st.thread(tid);
        const int rb = t.stack.back().reg_base;
        std::size_t cursor = st.env_log.size();
        std::int64_t cv;
        if (opts.input_mode != InputMode::Symbolic &&
            cursor < opts.concrete_inputs.size()) {
            cv = opts.concrete_inputs[cursor];
        } else {
            cv = st.virtual_time;
        }
        st.virtual_time += 1;
        VmState::EnvRead read;
        read.value = cv;
        st.env_log.push_back(read);
        t.regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            Value::ofConst(cv);
        advance(t);
        break;
      }

      case ir::Op::Output:
      case ir::Op::OutputStr: {
        ThreadState &t = st.thread(tid);
        OutputRecord rec;
        rec.label = di.text;
        if (di.op == ir::Op::Output) {
            rec.value = readOperand(t, t.stack.back().reg_base,
                                    di.a, di.a_imm)
                            .toExpr();
        }
        rec.tid = tid;
        rec.pc = di.pc;
        rec.loc = &di.loc;
        st.output.append(std::move(rec));
        advance(t);
        Event ev;
        ev.kind = EventKind::Output;
        ev.tid = tid;
        ev.pc = di.pc;
        ev.loc = &di.loc;
        publish(std::move(ev));
        break;
      }

      case ir::Op::Assert: {
        ThreadState &t = st.thread(tid);
        Value c = readOperand(t, t.stack.back().reg_base, di.a,
                              di.a_imm);
        bool holds;
        if (c.isConcrete()) {
            holds = c.constValue() != 0;
        } else {
            sym::ExprPtr cond =
                sym::mkNe(c.expr(), sym::mkConst(0, c.width()));
            holds = decideCondition(cond, DecisionKind::Assert);
            if (st.finished())
                return;
        }
        if (!holds) {
            finish(RunOutcome::AssertFail, tid, di.pc,
                   "assertion '" + di.text + "' failed at " +
                       di.loc.toString());
            return;
        }
        advance(st.thread(tid));
        break;
      }

      default:
        PORTEND_FATAL("hot opcode ", static_cast<int>(di.op),
                      " routed to executeSlow");
    }
}

namespace {

/**
 * Scheduling decisions a run takes before Brent's first snapshot.
 * Nearly all runs are short (at fuzz seed 42, 44,044 of 44,899 runs
 * take under 100 steps) and finish before this, so they never copy
 * state or compare it; a run that loops has long passed it when its
 * budget runs out.
 */
constexpr std::uint64_t kLoopWarmup = 64;

bool
sameThread(const ThreadState &a, const ThreadState &b)
{
    if (a.status != b.status || a.wait_sync != b.wait_sync ||
        a.wait_tid != b.wait_tid || a.cond_relock != b.cond_relock ||
        a.spawn_arg != b.spawn_arg) {
        return false;
    }
    if (a.stack != b.stack)
        return false;
    if (!a.regs.sharedWith(b.regs)) {
        const CowVec<Value> &ra = a.regs;
        const CowVec<Value> &rb = b.regs;
        if (ra.size() != rb.size())
            return false;
        for (std::size_t i = 0; i < ra.size(); ++i) {
            if (!ra[i].equals(rb[i]))
                return false;
        }
    }
    return a.recent_reads == b.recent_reads;
}

} // namespace

/**
 * One run()'s cycle check. The snapshot holds the *projected state*
 * of an earlier decision — everything that steers future execution
 * — plus the counters the skip advances. Counters only grow, so they
 * stay out of the comparison: global_step, preemption_points,
 * symbolic_branches, per-thread steps and last_step, the counter
 * rows and virtual_time. The append-only logs (path, output,
 * env_log, forced decisions) are compared by size: equal sizes mean
 * nothing was appended in between.
 */
struct Interpreter::LoopCheck
{
    bool armed = false;          ///< still looking for a cycle
    std::uint64_t decisions = 0; ///< scheduling decisions this run
    std::uint64_t power = 1;     ///< Brent: current window length
    std::uint64_t lam = 0;       ///< Brent: decisions since snapshot
    std::uint64_t detected = 0;  ///< cycles found (0 or 1)
    std::uint64_t skipped = 0;   ///< steps skipped
    std::vector<std::uint64_t> key; ///< scratch: this decision's key

    struct Snapshot
    {
        // Projected state.
        std::vector<std::uint64_t> key;
        MemImage mem;
        std::vector<ThreadState> threads;
        std::vector<MutexState> mutexes;
        std::vector<CondState> conds;
        std::vector<BarrierState> barriers;
        ThreadId current = -1;
        std::uint64_t rng = 0;
        std::size_t path = 0, output = 0, env_log = 0, forced = 0,
                    forced_cursor = 0;
        int next_symbol = 0;
        // Counters (the threads' counter rows ride along in
        // `threads`).
        std::uint64_t global_step = 0;
        std::uint64_t preemption_points = 0;
        std::uint64_t symbolic_branches = 0;
        std::uint64_t boxed = 0;
        std::int64_t virtual_time = 0;
    };
    /** Held only while comparing: it shares pages and tables with
     *  the live state, whose next write to them then clones. */
    std::optional<Snapshot> snap;

    void
    take(const VmState &st)
    {
        Snapshot &s = snap.emplace();
        s.key.swap(key);
        s.mem = st.mem;
        s.threads = st.threads;
        s.mutexes = st.mutexes;
        s.conds = st.conds;
        s.barriers = st.barriers;
        s.current = st.current;
        s.rng = st.rng.rawState();
        s.path = st.path.size();
        s.output = st.output.size();
        s.env_log = st.env_log.size();
        s.forced = st.forced_decisions.size();
        s.forced_cursor = st.forced_cursor;
        s.next_symbol = st.next_symbol;
        s.global_step = st.global_step;
        s.preemption_points = st.preemption_points;
        s.symbolic_branches = st.symbolic_branches;
        s.boxed = valuesBoxed();
        s.virtual_time = st.virtual_time;
    }

    /** True when @p st (with loop key `key`) repeats the snapshot;
     *  cheap, discriminating fields first. */
    bool
    repeats(const VmState &st) const
    {
        const Snapshot &s = *snap;
        if (key != s.key || st.current != s.current ||
            st.rng.rawState() != s.rng ||
            st.threads.size() != s.threads.size() ||
            st.path.size() != s.path || st.output.size() != s.output ||
            st.env_log.size() != s.env_log ||
            st.forced_decisions.size() != s.forced ||
            st.forced_cursor != s.forced_cursor ||
            st.next_symbol != s.next_symbol) {
            return false;
        }
        for (std::size_t i = 0; i < st.threads.size(); ++i) {
            if (!sameThread(st.threads[i], s.threads[i]))
                return false;
        }
        return st.mutexes == s.mutexes && st.conds == s.conds &&
               st.barriers == s.barriers && st.mem.equals(s.mem);
    }
};

bool
Interpreter::loopKey(const SchedulePolicy &pol,
                     std::vector<std::uint64_t> &key) const
{
    if (!pol.loopKey(st, key))
        return false;
    for (const EventSink *s : sinks) {
        if (!s->loopKey(key))
            return false;
    }
    if (!active_stop)
        return true;
    // A stop point can fire only while its count is below its
    // target occurrence, and counts only grow: an equal capped
    // count at both ends of a cycle means the cycle never moves it.
    for (const auto &p : active_stop->before_cell) {
        key.push_back(
            std::min(st.cellAccessCount(p.tid, p.cell), p.occurrence));
    }
    if (active_stop->after_pair)
        key.push_back(static_cast<std::uint64_t>(pair_stage));
    return true;
}

void
Interpreter::checkLoop(LoopCheck &lc, const SchedulePolicy &pol)
{
    lc.decisions += 1;
    if (lc.decisions < kLoopWarmup)
        return;
    lc.key.clear();
    if (!loopKey(pol, lc.key)) {
        // Compare only within a stretch every consumer vouches for.
        lc.snap.reset();
        return;
    }
    if (lc.snap) {
        if (lc.repeats(st)) {
            // Deterministic replay from an equal state under equal
            // keys repeats the cycle until the budget. The unskipped
            // run checks the budget before each decision, so the
            // skip must land strictly below it.
            const std::uint64_t len =
                st.global_step - lc.snap->global_step;
            const std::uint64_t k =
                (opts.max_steps - st.global_step - 1) / len;
            if (k > 0)
                skipCycles(lc, k);
            lc.detected = 1;
            lc.skipped = k * len;
            lc.armed = false;
            lc.snap.reset();
            return;
        }
        if (++lc.lam < lc.power)
            return;
        lc.power *= 2;
    } else {
        lc.power = 1;
    }
    lc.lam = 0;
    lc.take(st);
}

void
Interpreter::skipCycles(const LoopCheck &lc, std::uint64_t k)
{
    const LoopCheck::Snapshot &s = *lc.snap;
    const std::uint64_t len = st.global_step - s.global_step;
    st.global_step += k * len;
    st.preemption_points += k * (st.preemption_points - s.preemption_points);
    st.symbolic_branches += k * (st.symbolic_branches - s.symbolic_branches);
    detail::noteBoxed(k * (valuesBoxed() - s.boxed));
    st.virtual_time += static_cast<std::int64_t>(k) *
                       (st.virtual_time - s.virtual_time);
    for (std::size_t t = 0; t < st.threads.size(); ++t) {
        ThreadState &th = st.threads[t];
        const ThreadState &old = s.threads[t];
        const std::uint64_t dsteps = th.steps - old.steps;
        th.steps += k * dsteps;
        if (dsteps > 0)
            th.last_step += k * len;
        if (!th.counts.sharedWith(old.counts)) {
            const auto row = th.counts.rw();
            const CowVec<std::uint64_t> &was = old.counts;
            for (std::size_t i = 0; i < row.size(); ++i)
                row[i] += k * (row[i] - was[i]);
        }
    }
}

RunOutcome
Interpreter::run()
{
    return run(StopSpec{});
}

RunOutcome
Interpreter::run(const StopSpec &stop)
{
    active_stop = stop.empty() ? nullptr : &stop;
    stopped_at_spec = false;
    stop_pair_fired = false;
    pair_stage = 0;
    fired_before_cell.clear();
    SchedulePolicy *pol = policy ? policy : &default_policy;

    const std::uint64_t boxed0 = valuesBoxed();
    const RunOutcome outcome0 = st.outcome;
    // A fork hook decides symbolic branches outside the state, so
    // its runs are never shortened.
    LoopCheck loop;
    loop.armed = hook == nullptr;

    // Observability: one span per run plus a delta flush of the
    // state's counters into the process collector at run exit. The
    // hot segment loop is untouched — it keeps bumping plain state
    // counters — so with no sinks installed this is two relaxed
    // pointer loads per run() call.
    obs::Span run_span("interp", "run");
    const std::uint64_t entry_step = st.global_step;
    const std::uint64_t entry_preemptions = st.preemption_points;
    const std::uint64_t entry_sym_branches = st.symbolic_branches;
    const auto flush_observability = [&] {
        const std::uint64_t dsteps = st.global_step - entry_step;
        run_span.arg("steps", static_cast<std::int64_t>(dsteps));
        if (obs::Collector *c = obs::collector()) {
            c->add(obs::Counter::InterpRuns, 1);
            c->add(obs::Counter::InterpSteps, dsteps);
            c->add(obs::Counter::InterpPreemptions,
                   st.preemption_points - entry_preemptions);
            c->add(obs::Counter::InterpSymBranches,
                   st.symbolic_branches - entry_sym_branches);
            c->add(obs::Counter::InterpValuesBoxed,
                   valuesBoxed() - boxed0);
            c->add(obs::Counter::InterpCyclesDetected, loop.detected);
            c->add(obs::Counter::InterpStepsSkipped, loop.skipped);
            if (outcome0 != RunOutcome::TimedOut &&
                st.outcome == RunOutcome::TimedOut) {
                c->add(obs::Counter::InterpTimeouts, 1);
            }
            c->observe(obs::Hist::InterpRunSteps, dsteps);
        }
    };

    while (!st.finished()) {
        if (st.global_step >= opts.max_steps) {
            finish(RunOutcome::TimedOut, st.current, -1,
                   "step budget exhausted");
            break;
        }
        st.runnableInto(runnable_scratch);
        if (runnable_scratch.empty()) {
            if (st.allExited()) {
                finish(RunOutcome::Exited, -1, -1, "all threads done");
            } else {
                finish(RunOutcome::Deadlock, -1, -1,
                       "all live threads blocked");
            }
            break;
        }

        ThreadId tid;
        bool first;
        if (st.resume_in_segment && st.current >= 0 &&
            st.current < static_cast<ThreadId>(st.threads.size()) &&
            st.thread(st.current).runnable()) {
            // Continue the interrupted segment without a scheduling
            // decision, keeping trace cursors aligned.
            tid = st.current;
            first = st.resume_first;
            st.resume_in_segment = false;
        } else {
            st.resume_in_segment = false;
            if (loop.armed)
                checkLoop(loop, *pol);
            tid = pol->pick(st, runnable_scratch);
            if (tid < 0) {
                finish(RunOutcome::Aborted, -1, -1,
                       "schedule policy aborted");
                break;
            }
            PORTEND_ASSERT(st.thread(tid).runnable(),
                           "policy picked non-runnable thread ", tid);
            st.current = tid;
            st.preemption_points += 1;
            first = true;
        }

        const SegExit ex = segment(tid, first);
        if (ex == SegExit::StopBefore || ex == SegExit::StopPair) {
            stopped_at_spec = true;
            active_stop = nullptr;
            flush_observability();
            return RunOutcome::Running;
        }
    }

    active_stop = nullptr;
    flush_observability();
    return st.outcome;
}

Interpreter::SegExit
Interpreter::segment(ThreadId tid, bool first)
{
    for (;;) {
        if (st.finished())
            return SegExit::Blocked;
        ThreadState *t = &st.threads[static_cast<std::size_t>(tid)];
        if (!t->runnable())
            return SegExit::Blocked;
        if (st.global_step >= opts.max_steps) {
            finish(RunOutcome::TimedOut, tid, -1,
                   "step budget exhausted");
            return SegExit::Blocked;
        }

        const Frame &fr = t->stack.back();
        const DecodedInst &di =
            dec->funcs[static_cast<std::size_t>(fr.func)]
                .insts[static_cast<std::size_t>(fr.ip)];
        const int rb = fr.reg_base;
        // `fr` dangles once a case body calls stack.rw(); only `rb`
        // and `di` (which lives in the immutable decode) survive.

        if (active_stop && checkStops(tid, di)) {
            st.resume_in_segment = true;
            st.resume_first = first;
            return SegExit::StopBefore;
        }
        // Without an installed policy the scheduler is FifoPolicy,
        // which keeps the current (runnable-by-definition) thread at
        // every decision point — so exiting the segment to pick
        // would always re-pick this thread. Skip the round trip and
        // keep executing; policies must still observe every decision
        // point, both to steer and to keep trace cursors (which
        // index by decision count) aligned between record and replay.
        if (!first && policy != nullptr && isPreemptionPoint(di))
            return SegExit::Preempt;

        st.global_step += 1;
        t->steps += 1;
        t->last_step = st.global_step;

        switch (di.op) {
#define PORTEND_X(name)                                               \
  case ir::Op::name:                                                  \
      goto L_##name;
            PORTEND_OP_LIST(PORTEND_X)
#undef PORTEND_X
        }
        goto L_post; // unreachable: the switch covers every opcode

    L_Nop:
    L_Yield: {
        advance(*t);
        goto L_post;
    }

    L_ConstOp: {
        t->regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            Value::ofConst(di.a_imm);
        advance(*t);
        goto L_post;
    }

    L_Mov: {
        Value v = readOperand(*t, rb, di.a, di.a_imm);
        t->regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            std::move(v);
        advance(*t);
        goto L_post;
    }

    L_Bin: {
        Value a = readOperand(*t, rb, di.a, di.a_imm);
        Value b = readOperand(*t, rb, di.b, di.b_imm);
        if (di.kind == sym::ExprKind::SDiv ||
            di.kind == sym::ExprKind::SRem) {
            if (b.isConcrete()) {
                if (b.constValue() == 0) {
                    finish(RunOutcome::CrashDivZero, tid, di.pc,
                           "division by zero at " + di.loc.toString());
                    goto L_post;
                }
            } else {
                sym::ExprPtr nz =
                    sym::mkNe(b.expr(), sym::mkConst(0, b.width()));
                if (!decideCondition(nz, DecisionKind::DivZero)) {
                    finish(RunOutcome::CrashDivZero, tid, di.pc,
                           "symbolic division by zero at " +
                               di.loc.toString());
                    goto L_post;
                }
                t = &st.threads[static_cast<std::size_t>(tid)];
            }
        }
        Value r = valueBinary(di.kind, a, b);
        t->regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            std::move(r);
        advance(*t);
        goto L_post;
    }

    L_Un: {
        Value r =
            valueUnary(di.kind, readOperand(*t, rb, di.a, di.a_imm));
        t->regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            std::move(r);
        advance(*t);
        goto L_post;
    }

    L_Select: {
        Value c = readOperand(*t, rb, di.a, di.a_imm);
        Value tv = readOperand(*t, rb, di.b, di.b_imm);
        Value fv = readOperand(*t, rb, di.c, di.c_imm);
        Value r;
        if (c.isConcrete()) {
            r = c.constValue() != 0 ? std::move(tv) : std::move(fv);
        } else {
            sym::ExprPtr cond =
                sym::mkNe(c.expr(), sym::mkConst(0, c.width()));
            r = Value(
                sym::Expr::ite(cond, tv.toExpr(), fv.toExpr()));
        }
        t->regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            std::move(r);
        advance(*t);
        goto L_post;
    }

    L_Load: {
        Value idx = readOperand(*t, rb, di.a, di.a_imm);
        std::int64_t i = 0;
        if (!resolveIndex(tid, di, idx, di.gsize, i))
            goto L_post;
        const int cell = di.cell_base + static_cast<int>(i);
        t = &st.threads[static_cast<std::size_t>(tid)];
        Value v = st.mem[static_cast<std::size_t>(cell)];
        t->regs.rw()[static_cast<std::size_t>(rb + di.dst)] =
            std::move(v);
        std::uint64_t *row = t->counts.rw().data();
        const std::uint64_t occ =
            ++row[static_cast<std::size_t>(di.pc)];
        const std::uint64_t cocc =
            ++row[static_cast<std::size_t>(st.counter_stride) +
                  static_cast<std::size_t>(cell)];
        t->recent_reads.push(cell);
        advance(*t);
        Event ev;
        ev.kind = EventKind::MemRead;
        ev.tid = tid;
        ev.pc = di.pc;
        ev.cell = cell;
        ev.occurrence = occ;
        ev.cell_occurrence = cocc;
        ev.loc = &di.loc;
        publish(std::move(ev));
        goto L_post;
    }

    L_Store: {
        Value idx = readOperand(*t, rb, di.a, di.a_imm);
        std::int64_t i = 0;
        if (!resolveIndex(tid, di, idx, di.gsize, i))
            goto L_post;
        const int cell = di.cell_base + static_cast<int>(i);
        t = &st.threads[static_cast<std::size_t>(tid)];
        Value val = readOperand(*t, rb, di.b, di.b_imm);
        st.mem.write(static_cast<std::size_t>(cell), std::move(val));
        std::uint64_t *row = t->counts.rw().data();
        const std::uint64_t occ =
            ++row[static_cast<std::size_t>(di.pc)];
        const std::uint64_t cocc =
            ++row[static_cast<std::size_t>(st.counter_stride) +
                  static_cast<std::size_t>(cell)];
        advance(*t);
        Event ev;
        ev.kind = EventKind::MemWrite;
        ev.tid = tid;
        ev.pc = di.pc;
        ev.cell = cell;
        ev.occurrence = occ;
        ev.cell_occurrence = cocc;
        ev.loc = &di.loc;
        publish(std::move(ev));
        goto L_post;
    }

    L_AtomicRmW: {
        Value idx = readOperand(*t, rb, di.a, di.a_imm);
        std::int64_t i = 0;
        if (!resolveIndex(tid, di, idx, di.gsize, i))
            goto L_post;
        const int cell = di.cell_base + static_cast<int>(i);
        t = &st.threads[static_cast<std::size_t>(tid)];
        Value delta = readOperand(*t, rb, di.b, di.b_imm);
        Value old = st.mem[static_cast<std::size_t>(cell)];
        st.mem.write(static_cast<std::size_t>(cell),
                     valueBinary(sym::ExprKind::Add, old, delta));
        if (di.dst >= 0) {
            t->regs.rw()[static_cast<std::size_t>(rb + di.dst)] = old;
        }
        std::uint64_t *row = t->counts.rw().data();
        const std::uint64_t occ =
            ++row[static_cast<std::size_t>(di.pc)];
        const std::uint64_t cocc =
            ++row[static_cast<std::size_t>(st.counter_stride) +
                  static_cast<std::size_t>(cell)];
        advance(*t);
        Event r;
        r.kind = EventKind::MemRead;
        r.tid = tid;
        r.pc = di.pc;
        r.cell = cell;
        r.atomic = true;
        r.occurrence = occ;
        r.cell_occurrence = cocc;
        r.loc = &di.loc;
        Event w = r;
        w.kind = EventKind::MemWrite;
        publish(std::move(r));
        publish(std::move(w));
        goto L_post;
    }

    L_Br: {
        Value c = readOperand(*t, rb, di.a, di.a_imm);
        bool take;
        if (c.isConcrete()) {
            take = c.constValue() != 0;
        } else {
            sym::ExprPtr cond =
                sym::mkNe(c.expr(), sym::mkConst(0, c.width()));
            take = decideCondition(cond, DecisionKind::Branch);
            if (st.finished())
                goto L_post;
            t = &st.threads[static_cast<std::size_t>(tid)];
        }
        t->stack.rw().back().ip = take ? di.then_ip : di.else_ip;
        goto L_post;
    }

    L_Jmp: {
        t->stack.rw().back().ip = di.then_ip;
        goto L_post;
    }

    L_Call: {
        const int nparams =
            di.callee_params < 3 ? di.callee_params : 3;
        const std::int32_t slots[3] = {di.a, di.b, di.c};
        const std::int64_t imms[3] = {di.a_imm, di.b_imm, di.c_imm};
        Value args[3];
        bool present[3] = {false, false, false};
        for (int p = 0; p < nparams; ++p) {
            if (slots[p] != kOpAbsent) {
                args[p] = readOperand(*t, rb, slots[p], imms[p]);
                present[p] = true;
            }
        }
        advance(*t); // return resumes after the call
        const int base = static_cast<int>(t->regs.size());
        Frame nf;
        nf.func = di.fid;
        nf.ip = 0;
        nf.ret_dst = di.dst;
        nf.reg_base = base;
        t->stack.rw().push_back(nf);
        auto rg = t->regs.rw();
        rg.resize(static_cast<std::size_t>(base + di.callee_regs));
        for (int p = 0; p < nparams; ++p) {
            if (present[p])
                rg[static_cast<std::size_t>(base + p)] =
                    std::move(args[p]);
        }
        goto L_post;
    }

    L_Ret: {
        const bool has_rv = di.a != kOpAbsent;
        Value rv;
        if (has_rv)
            rv = readOperand(*t, rb, di.a, di.a_imm);
        auto stk = t->stack.rw();
        const ir::Reg dst = stk.back().ret_dst;
        const int base = stk.back().reg_base;
        stk.pop_back();
        t->regs.rw().resize(static_cast<std::size_t>(base));
        if (stk.empty()) {
            exitThread(tid);
        } else if (has_rv && dst >= 0) {
            t->regs.rw()[static_cast<std::size_t>(
                stk.back().reg_base + dst)] = std::move(rv);
        }
        goto L_post;
    }

    L_Halt: {
        finish(RunOutcome::Exited, tid, di.pc, "halt");
        goto L_post;
    }

        // Cold opcodes: synchronization, threads, environment. One
        // shared out-of-line path keeps the hot loop compact.
    L_ThreadCreate:
    L_ThreadJoin:
    L_MutexLock:
    L_MutexUnlock:
    L_CondWait:
    L_CondSignal:
    L_CondBroadcast:
    L_BarrierWait:
    L_Sleep:
    L_Input:
    L_GetTime:
    L_Output:
    L_OutputStr:
    L_Assert: {
        executeSlow(tid, di);
        goto L_post;
    }

    L_post:
        first = false;
        if (stop_pair_fired) {
            st.resume_in_segment = true;
            st.resume_first = false;
            return SegExit::StopPair;
        }
    }
}

} // namespace portend::rt
