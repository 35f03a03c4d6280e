/**
 * @file
 * The PIL interpreter — this repository's Cloud9.
 *
 * A deterministic single-processor cooperative interpreter for
 * multi-threaded PIL programs. Preemption points are synchronization
 * operations, thread operations, yields, and (with
 * ExecOptions::preempt_on_memory) global-memory accesses; at each one
 * the schedule policy picks the next runnable thread (paper §3.1).
 * Values are symbolic expressions; a ForkHook (implemented by
 * exec::Executor) resolves symbolic control decisions, enabling
 * KLEE-style state forking.
 *
 * The interpreter detects the paper's "basic" specification
 * violations natively: out-of-bounds accesses, division by zero,
 * deadlocks (all live threads blocked, including self-deadlock),
 * failed semantic assertions, and step-budget timeouts (the raw
 * material for infinite-loop vs ad-hoc-synchronization diagnosis).
 */

#ifndef PORTEND_RT_INTERPRETER_H
#define PORTEND_RT_INTERPRETER_H

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ir/program.h"
#include "rt/decode.h"
#include "rt/events.h"
#include "rt/policy.h"
#include "rt/vmstate.h"

namespace portend::rt {

class Interpreter;

/** Where a symbolic decision arose. */
enum class DecisionKind : std::uint8_t {
    Branch,   ///< conditional branch on symbolic data
    Bounds,   ///< in-bounds check of a symbolic index
    DivZero,  ///< divisor-is-nonzero check
    Assert,   ///< semantic predicate
};

/**
 * Resolver for symbolic control decisions.
 *
 * When the interpreter must decide a symbolic I1 condition, it asks
 * the hook which way *this* execution goes; the hook may clone the
 * interpreter's state beforehand to explore the other way (forking).
 * The interpreter then records the matching path constraint itself.
 */
class ForkHook
{
  public:
    virtual ~ForkHook() = default;

    /**
     * Decide symbolic condition @p cond.
     *
     * @return true when this execution should proceed as if the
     *         condition held
     */
    virtual bool decide(Interpreter &interp, const sym::ExprPtr &cond,
                        DecisionKind kind) = 0;

    /**
     * Choose a concrete value for symbolic @p val (KLEE-style
     * address concretization); the interpreter adds val == result
     * to the path condition.
     */
    virtual std::int64_t concretize(Interpreter &interp,
                                    const sym::ExprPtr &val) = 0;
};

/** How Input instructions produce values. */
enum class InputMode : std::uint8_t {
    Concrete, ///< fixed values (explicit list, else the domain lo)
    Symbolic, ///< fresh symbols with the declared domains
};

/**
 * One named symbolic-input request (see ExecOptions::sym_inputs).
 * Matches Input instructions by their declared label; an optional
 * range overrides the instruction's declared domain.
 */
struct SymInputSpec
{
    std::string name;
    bool has_range = false; ///< when set, [lo, hi] replaces the decl
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/** Interpreter configuration. */
struct ExecOptions
{
    InputMode input_mode = InputMode::Concrete;

    /** Values consumed in order by Input in Concrete mode. */
    std::vector<std::int64_t> concrete_inputs;

    /** Step budget; exceeding it sets RunOutcome::TimedOut. */
    std::uint64_t max_steps = 2000000;

    /**
     * Make every global-memory access a preemption point. Portend
     * uses this for detection and analysis runs so that recorded
     * schedule traces align decision-for-decision with replays
     * regardless of which cells are racy.
     */
    bool preempt_on_memory = false;

    /**
     * How many Input instructions become symbolic in Symbolic mode;
     * later inputs take their concrete domain lower bound (the
     * paper's "number of symbolic inputs" dial, §3.3). Ignored when
     * sym_inputs selects inputs by name.
     */
    int max_symbolic_inputs = INT32_MAX;

    /**
     * Named symbolic-input selection. When non-empty (and input_mode
     * is Symbolic), an Input instruction becomes symbolic iff its
     * label matches an entry here — the positional
     * max_symbolic_inputs cap does not apply — and an entry with
     * has_range overrides the instruction's declared domain. When
     * empty, the legacy positional rule applies unchanged.
     */
    std::vector<SymInputSpec> sym_inputs;

    /** Seed for the state-carried RNG. */
    std::uint64_t rng_seed = 1;
};

/**
 * Drives a VmState over a finalized PIL program.
 *
 * The interpreter itself holds no analysis logic; detectors and
 * recorders observe the event stream, and the schedule policy and
 * fork hook steer execution.
 */
class Interpreter
{
  public:
    /** Stop conditions for partial runs (checkpoint placement). */
    struct StopSpec
    {
        /**
         * Stop *before* the given (thread, cell) access. Cell-based
         * stops are robust against path divergence moving the racing
         * access to a different pc (paper §3.3, Fig. 4).
         */
        struct CellPoint
        {
            ThreadId tid;
            int cell;
            std::uint64_t occurrence; ///< 1-based per (tid, cell)
        };

        std::vector<CellPoint> before_cell;

        /**
         * Stop right *after* a racing pair completed in a given
         * order: an access of kind `first.write` by `first.tid` to
         * `cell`, then one of kind `then.write` by `then.tid` (the
         * post-race snapshot of Algorithm 1). The interpreter tracks
         * the pair's stage itself, so the stage can join the loop
         * key of the run.
         */
        struct PairPoint
        {
            struct Access
            {
                ThreadId tid = -1;
                bool write = false;
            };
            int cell = -1;
            Access first;
            Access then;
        };

        std::optional<PairPoint> after_pair;

        bool
        empty() const
        {
            return before_cell.empty() && !after_pair;
        }
    };

    /**
     * @param p     finalized program (kept by reference)
     * @param opts  execution configuration
     */
    Interpreter(const ir::Program &p, ExecOptions opts);

    /**
     * Start from @p start (a checkpoint or a fork) rather than the
     * pristine state, so resuming costs one state copy, not two.
     */
    Interpreter(const ir::Program &p, ExecOptions opts, VmState start);

    /** Rebuild the initial state (main thread ready at entry). */
    void reset();

    /** Mutable access to the current state (checkpoint = copy). */
    VmState &state() { return st; }
    const VmState &state() const { return st; }

    /** Replace the state (restore a checkpoint / adopt a fork). */
    void setState(VmState s) { st = std::move(s); }

    /** Install the scheduling policy (non-owning; default FIFO). */
    void setPolicy(SchedulePolicy *p) { policy = p; }

    /** Install the symbolic-decision hook (non-owning). */
    void setForkHook(ForkHook *h) { hook = h; }

    /** Attach an event sink (non-owning). */
    void addSink(EventSink *s) { sinks.push_back(s); }

    /** Run to completion (or budget/abort). */
    RunOutcome run();

    /**
     * Run until a stop condition fires or execution finishes.
     *
     * Exact loop detection: at each scheduling decision the run
     * checks (Brent's algorithm) whether it has come back to an
     * earlier decision with an equal projected state and equal loop
     * keys from its policy, sinks and stop spec. Such a run repeats
     * itself until the step budget, so the whole cycles that fit
     * below max_steps are skipped by advancing every counter; the
     * run still times out at the same step, in the same state. See
     * docs/ARCHITECTURE.md "Exact loop detection".
     *
     * @return the outcome; RunOutcome::Running means a stop
     *         condition fired and the state is resumable
     */
    RunOutcome run(const StopSpec &stop);

    /** True when the last run() returned because a stop fired. */
    bool stopped() const { return stopped_at_spec; }

    /**
     * Indices into the last StopSpec's before_cell list that matched
     * when the run stopped (empty unless stopped() and the stop came
     * from a cell point). Checkpoint-ladder construction uses this
     * to learn which of many requested pre-race points a shared
     * replay just reached.
     */
    const std::vector<std::size_t> &
    firedCellStops() const
    {
        return fired_before_cell;
    }

    /** The program being executed. */
    const ir::Program &program() const { return prog; }

    /** The decoded form of the program (shared across interpreters). */
    const DecodedProgram &decoded() const { return *dec; }

    /** Number of decoded instruction sites (`interp.decoded_sites`). */
    int decodedSites() const { return dec->num_insts; }

    /** The execution options. */
    const ExecOptions &options() const { return opts; }
    ExecOptions &options() { return opts; }

  private:
    /** How one scheduling segment ended. */
    enum class SegExit : std::uint8_t {
        Blocked,    ///< thread blocked/exited/finished/budget
        Preempt,    ///< hit a preemption point (scheduler's turn)
        StopBefore, ///< a before_cell stop point matched
        StopPair,   ///< the after_pair stop completed
    };

    /** Brent's cycle-check state of one run() (interpreter.cc). */
    struct LoopCheck;

    /** Loop-detection step at a scheduling decision of @p pol. */
    void checkLoop(LoopCheck &lc, const SchedulePolicy &pol);

    /** Append the loop keys of @p pol, the sinks and the active stop
     *  spec; false when some consumer cannot vouch. */
    bool loopKey(const SchedulePolicy &pol,
                 std::vector<std::uint64_t> &key) const;

    /** Advance every counter by @p k cycles of @p lc's snapshot. */
    void skipCycles(const LoopCheck &lc, std::uint64_t k);

    /** Run thread @p tid until its segment ends. */
    SegExit segment(ThreadId tid, bool first);

    /** Decoded next instruction of thread @p t. */
    const DecodedInst &
    fetchD(const ThreadState &t) const
    {
        const Frame &f = t.stack.back();
        return dec->funcs[static_cast<std::size_t>(f.func)]
            .insts[static_cast<std::size_t>(f.ip)];
    }

    /** Evaluate decoded operand (@p slot, @p imm) in @p t's frame. */
    Value
    readOperand(const ThreadState &t, int reg_base, std::int32_t slot,
                std::int64_t imm) const
    {
        if (slot >= 0)
            return t.regs[static_cast<std::size_t>(reg_base + slot)];
        return Value::ofConst(imm);
    }

    /** True when @p di is a preemption point. */
    bool isPreemptionPoint(const DecodedInst &di) const;

    /** Stop-spec check before executing @p di; true when a point
     *  matched (resume state must then be saved). */
    bool checkStops(ThreadId tid, const DecodedInst &di);

    /** Execute one cold (sync/thread/env) instruction. */
    void executeSlow(ThreadId tid, const DecodedInst &di);

    /** Advance past the current instruction of @p t. */
    void advance(ThreadState &t);

    /** Hand @p ev to every sink, the policy and the after_pair
     *  stop. */
    void publish(Event ev);

    /** Resolve a symbolic I1 decision (hook / forced queue). */
    bool decideCondition(const sym::ExprPtr &cond, DecisionKind kind);

    /** Resolve a possibly-symbolic index to a concrete value. */
    bool resolveIndex(ThreadId tid, const DecodedInst &di,
                      const Value &idx, int size, std::int64_t &out);

    /** Set a final outcome. */
    void finish(RunOutcome o, ThreadId tid, int pc, std::string detail);

    /** Mutex acquisition step; true when acquired. */
    bool tryLock(ThreadId tid, ir::SyncId m);

    /** Release @p m, waking one waiter (barging semantics). */
    void unlockMutex(ThreadId tid, ir::SyncId m, int pc,
                     const ir::SourceLoc &loc);

    /** Thread exit bookkeeping: wake joiners, maybe end program. */
    void exitThread(ThreadId tid);

    const ir::Program &prog;
    std::shared_ptr<const DecodedProgram> dec;
    ExecOptions opts;
    VmState st;

    SchedulePolicy *policy = nullptr;
    FifoPolicy default_policy;
    ForkHook *hook = nullptr;
    std::vector<EventSink *> sinks;

    const StopSpec *active_stop = nullptr;
    bool stopped_at_spec = false;
    bool stop_pair_fired = false;
    /** Accesses of the active after_pair seen so far (0 or 1). */
    int pair_stage = 0;
    std::vector<std::size_t> fired_before_cell;

    /** Reusable runnable-thread scratch for the scheduler loop. */
    std::vector<ThreadId> runnable_scratch;
};

} // namespace portend::rt

#endif // PORTEND_RT_INTERPRETER_H
