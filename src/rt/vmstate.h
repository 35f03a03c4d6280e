/**
 * @file
 * Value-semantic virtual machine state with copy-on-write internals.
 *
 * Everything the interpreter mutates lives in VmState, and VmState is
 * plainly copyable: copying it is Portend's checkpoint primitive
 * (pre-race / post-race checkpoints of Algorithm 1) and the fork
 * primitive of multi-path exploration. The heavy containers — the
 * paged memory image, and each thread's frame stack, registers and
 * access-counter row — are copy-on-write vectors shared between
 * copies (support/cow.h): a checkpoint costs O(pages + threads), and
 * a resumed fork pays one allocation per touched page/stack/row,
 * never for the whole state. Expression nodes were always immutable
 * and shared.
 */

#ifndef PORTEND_RT_VMSTATE_H
#define PORTEND_RT_VMSTATE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ir/program.h"
#include "rt/events.h"
#include "rt/value.h"
#include "support/cow.h"
#include "support/rng.h"
#include "sym/solver.h"

namespace portend::rt {

/**
 * The flat global-memory image, split into fixed-size pages that
 * copies share until written (the checkpoint write barrier lives in
 * write()). Reads never unshare.
 */
class MemImage
{
  public:
    /** Cells per page: small enough that a barrier copy is cheap,
     *  large enough that the page vector stays short. */
    static constexpr std::size_t kPageCells = 64;

    MemImage() = default;

    /**
     * Bulk-build the image from initial cell values: each page is
     * sized once and filled in place, so construction is O(cells)
     * with one allocation per page and no per-cell write barriers.
     */
    explicit MemImage(std::vector<Value> cells);

    /** Number of cells. */
    std::size_t size() const { return n; }

    /** Read cell @p i (never unshares). */
    const Value &
    operator[](std::size_t i) const
    {
        return pages[i / kPageCells][i % kPageCells];
    }

    /** Write cell @p i, cloning its page first when shared. */
    void
    write(std::size_t i, Value v)
    {
        auto &pg = pages[i / kPageCells];
        if (!pg.unique())
            unshared_ += 1;
        pg.rw()[i % kPageCells] = std::move(v);
    }

    /** Append a cell during incremental construction (tests). */
    void
    append(Value v)
    {
        if (n % kPageCells == 0)
            pages.emplace_back();
        pages.back().rw().push_back(std::move(v));
        n += 1;
    }

    /** Pages cloned by the write barrier over this image's lifetime
     *  (`detect.pages_unshared`; copies inherit the parent's
     *  count). */
    std::uint64_t unsharedCount() const { return unshared_; }

    /**
     * True when the page holding cell @p i is structurally shared
     * with @p o's (then every cell of the page compares equal, so
     * state diffing can hop to pageEnd(i) without reading cells).
     */
    bool
    sharesPage(std::size_t i, const MemImage &o) const
    {
        const std::size_t pg = i / kPageCells;
        return pg < o.pages.size() &&
               pages[pg].sharedWith(o.pages[pg]);
    }

    /** First cell index past the page holding cell @p i. */
    std::size_t
    pageEnd(std::size_t i) const
    {
        return std::min(n, (i / kPageCells + 1) * kPageCells);
    }

    /** Cell-for-cell equality; pages shared with @p o are equal by
     *  construction and skipped. */
    bool equals(const MemImage &o) const;

    /** Force-unshare every page (VmState::unshareAll, a test probe). */
    void
    unshareAll()
    {
        for (auto &p : pages)
            p.rw();
    }

  private:
    std::size_t n = 0;
    std::uint64_t unshared_ = 0;
    std::vector<CowVec<Value>> pages;
};

/** Scheduling status of one thread. */
enum class ThreadStatus : std::uint8_t {
    Runnable,
    BlockedMutex,   ///< waiting to acquire a mutex
    BlockedCond,    ///< waiting on a condition variable
    BlockedJoin,    ///< waiting for another thread to exit
    BlockedBarrier, ///< waiting at a barrier
    Exited,
};

/**
 * One stack frame of a thread.
 *
 * Frames no longer own their registers: a thread's frames share one
 * register arena (ThreadState::regs), each frame claiming the slice
 * [reg_base, reg_base + num_regs) of it. Call grows the arena, Ret
 * shrinks it — no per-frame vector allocation. The instruction
 * pointer is flat within the function (see rt/decode.h); block
 * boundaries are recovered through DecodedFunction::block_start when
 * needed.
 */
struct Frame
{
    ir::FuncId func = -1;
    int ip = 0;                ///< flat next-instruction pointer
    ir::Reg ret_dst = -1;      ///< caller register receiving the result
    int reg_base = 0;          ///< first register slot in the arena

    bool operator==(const Frame &) const = default;
};

/**
 * Ring size of ThreadState::recent_reads: how many of a thread's
 * latest global reads infinite-loop diagnosis inspects. A fixed
 * constant rather than an option because the ring is part of the
 * state that exact loop detection compares.
 */
constexpr int kSpinWindow = 64;

/**
 * A thread's last kSpinWindow read cells in a fixed ring: a load
 * overwrites the oldest entry, and copying a thread copies the ring
 * in place without allocating.
 */
class ReadRing
{
  public:
    /** Record a read of @p cell, dropping the oldest when full. */
    void
    push(int cell)
    {
        cells[static_cast<std::size_t>(next)] = cell;
        next = next + 1 == kSpinWindow ? 0 : next + 1;
        if (n < kSpinWindow)
            n += 1;
    }

    /** Reads held (at most kSpinWindow). */
    int size() const { return n; }

    /** The @p i-th oldest read. */
    int
    operator[](int i) const
    {
        const int j = next - n + i;
        return cells[static_cast<std::size_t>(j < 0 ? j + kSpinWindow
                                                    : j)];
    }

    /** Equal reads oldest-first, wherever each ring starts. */
    bool
    operator==(const ReadRing &o) const
    {
        if (n != o.n)
            return false;
        for (int i = 0; i < n; ++i) {
            if ((*this)[i] != o[i])
                return false;
        }
        return true;
    }

  private:
    std::array<int, kSpinWindow> cells{};
    int next = 0; ///< slot the next read overwrites
    int n = 0;
};

/** One thread of execution. */
struct ThreadState
{
    ThreadId tid = -1;
    ThreadStatus status = ThreadStatus::Runnable;

    /**
     * Frame stack, copy-on-write: checkpoint copies share it, and a
     * forked thread unshares on its first executed instruction
     * (threads never scheduled after a fork stay shared). Read
     * directly, mutate via stack.rw().
     */
    CowVec<Frame> stack;

    /**
     * Register arena shared by all frames of this thread's stack
     * (copy-on-write like the stack). Frame f's register r lives at
     * regs[f.reg_base + r].
     */
    CowVec<Value> regs;

    ir::SyncId wait_sync = -1;   ///< sync object blocked on
    ThreadId wait_tid = -1;      ///< thread blocked on (join)
    bool cond_relock = false;    ///< woken from cond, waiting on mutex

    std::uint64_t steps = 0;     ///< instructions executed
    std::uint64_t last_step = 0; ///< global step of last execution
    std::int64_t spawn_arg = 0;  ///< argument passed at creation

    /** The last kSpinWindow read cells (spin-loop diagnosis). */
    ReadRing recent_reads;

    /**
     * Dynamic access counters of this thread. The first
     * VmState::counter_stride entries count instruction executions
     * by pc (pcs are dense decoded-site ids); the rest count
     * accesses by flat cell id at `counter_stride + cell`. Race
     * identity is cell-based because a divergent path may perform
     * the racing access at a different program counter (paper §3.3,
     * Fig. 4), while replay stop conditions index by pc; one row
     * serves both. Copy-on-write like the stack: the first counter
     * write after a fork clones this thread's row only.
     */
    CowVec<std::uint64_t> counts;

    /** True when the thread can be scheduled. */
    bool runnable() const { return status == ThreadStatus::Runnable; }
};

/** Mutex runtime state. */
struct MutexState
{
    ThreadId owner = -1;
    std::vector<ThreadId> waiters;

    bool operator==(const MutexState &) const = default;
};

/** Condition variable runtime state. */
struct CondState
{
    std::vector<ThreadId> waiters;

    bool operator==(const CondState &) const = default;
};

/** Barrier runtime state. */
struct BarrierState
{
    int arrived = 0;
    std::vector<ThreadId> waiting;

    bool operator==(const BarrierState &) const = default;
};

/**
 * One output system call. The label and the location are borrowed
 * from the program's shared decode (DecodedInst::text and ::loc)
 * under the lifetime rule of Event::loc, so copying a state copies
 * no strings.
 */
struct OutputRecord
{
    std::string_view label;     ///< format label ("stats: %d")
    sym::ExprPtr value;         ///< possibly-symbolic payload (may be null
                                ///< for pure string outputs)
    ThreadId tid = -1;
    int pc = -1;
    const ir::SourceLoc *loc = nullptr; ///< null outside a decode

    /** Render with a concrete payload (diagnostics). */
    std::string toString() const;
};

/** Aggregated program output. */
struct OutputLog
{
    std::vector<OutputRecord> records;

    void append(OutputRecord rec) { records.push_back(std::move(rec)); }

    std::size_t size() const { return records.size(); }
};

/** Why execution stopped. */
enum class RunOutcome : std::uint8_t {
    Running,      ///< not stopped yet
    Exited,       ///< normal termination
    CrashOob,     ///< out-of-bounds memory access
    CrashDivZero, ///< division/remainder by zero
    AssertFail,   ///< semantic predicate violated
    Deadlock,     ///< all live threads blocked
    TimedOut,     ///< step budget exhausted
    Aborted,      ///< schedule policy gave up (replay divergence)
};

/** Printable outcome name. */
const char *runOutcomeName(RunOutcome o);

/** True for outcomes the paper calls "basic" spec violations. */
bool isSpecViolation(RunOutcome o);

/**
 * Complete interpreter state; copy to checkpoint or fork.
 */
struct VmState
{
    /** Flat memory cells across all globals (paged, copy-on-write). */
    MemImage mem;

    std::vector<ThreadState> threads;
    std::vector<MutexState> mutexes;
    std::vector<CondState> conds;
    std::vector<BarrierState> barriers;

    /** Currently scheduled thread; -1 before first pick. */
    ThreadId current = -1;

    /** Path condition accumulated from symbolic decisions. */
    sym::PathCondition path;

    /** Program output so far. */
    OutputLog output;

    /**
     * One environment read (Input or GetTime instruction).
     *
     * Symbolic reads record the symbol id; concrete reads record the
     * value. The log is the paper's "log of system call inputs": a
     * replay run reproduces it by passing the same values back in
     * order (after substituting solver-model values for symbols).
     */
    struct EnvRead
    {
        bool symbolic = false;
        int sym_id = -1;
        std::int64_t value = 0;
        std::int64_t lo = 0;  ///< domain lower bound (symbolic reads)
        std::string name;     ///< input label (evidence witnesses)
    };

    /** Environment reads in consumption order. */
    std::vector<EnvRead> env_log;

    /** Row width of the pc-indexed prefix of ThreadState::counts. */
    std::int32_t counter_stride = 0;

    /** Dynamic count of (thread @p t, pc @p pc) executions (0 when
     *  out of range). */
    std::uint64_t
    accessCount(ThreadId t, int pc) const
    {
        if (t < 0 || static_cast<std::size_t>(t) >= threads.size())
            return 0;
        if (pc < 0 || pc >= counter_stride)
            return 0;
        return threads[static_cast<std::size_t>(t)]
            .counts[static_cast<std::size_t>(pc)];
    }

    /** Dynamic count of (thread @p t, cell @p cell) accesses (0 when
     *  out of range). */
    std::uint64_t
    cellAccessCount(ThreadId t, int cell) const
    {
        if (t < 0 || static_cast<std::size_t>(t) >= threads.size())
            return 0;
        const auto &row = threads[static_cast<std::size_t>(t)].counts;
        const std::size_t i =
            static_cast<std::size_t>(counter_stride) +
            static_cast<std::size_t>(cell);
        if (cell < 0 || i >= row.size())
            return 0;
        return row[i];
    }

    /**
     * Forced outcomes of pending symbolic decisions (set on fork),
     * consumed front-to-back via `forced_cursor` (a deque would
     * allocate on every state copy even when empty — the common
     * case).
     */
    std::vector<char> forced_decisions;
    std::size_t forced_cursor = 0;

    /** True when a forced decision is pending. */
    bool
    hasForcedDecision() const
    {
        return forced_cursor < forced_decisions.size();
    }

    /** Consume the next forced decision (requires one pending). */
    bool
    takeForcedDecision()
    {
        return forced_decisions[forced_cursor++] != 0;
    }

    /**
     * True when the state was captured mid-scheduling-segment (a
     * stop condition fired, or a fork was taken). Resuming such a
     * state continues the current thread without consulting the
     * scheduler, so replayed schedules stay aligned with recordings.
     */
    bool resume_in_segment = false;

    /** Segment-start flag to restore on resume (see Interpreter). */
    bool resume_first = true;

    /** Next fresh symbol id for symbolic inputs. */
    int next_symbol = 0;

    std::uint64_t global_step = 0;
    std::int64_t virtual_time = 0;

    /**
     * Scheduling decisions taken. Replay policies read it as their
     * trace cursor (replay::TracePolicy, AlternatePolicy and
     * PrimarySearchPolicy), so a forked or restored state resumes at
     * the right decision.
     */
    std::uint64_t preemption_points = 0;

    /** Symbolic decisions taken (forced, or offered to the hook). */
    std::uint64_t symbolic_branches = 0;

    RunOutcome outcome = RunOutcome::Running;
    std::string outcome_detail;
    int outcome_pc = -1;
    ThreadId outcome_tid = -1;

    /** Deterministic RNG carried with the state (schedule decisions). */
    Rng rng;

    /** Thread by id (checked). */
    ThreadState &thread(ThreadId t) { return threads.at(t); }
    const ThreadState &thread(ThreadId t) const { return threads.at(t); }

    /** Fill @p out with runnable thread ids, ascending (reuses the
     *  caller's buffer; the scheduler loop's allocation-free path). */
    void runnableInto(std::vector<ThreadId> &out) const;

    /** True when every thread has exited. */
    bool allExited() const;

    /** True once outcome is final. */
    bool finished() const { return outcome != RunOutcome::Running; }

    /**
     * Force-unshare every copy-on-write container (memory pages,
     * thread stacks, registers, counter rows), materializing a full
     * deep copy. Only tests call this: it is the isolation probe of
     * rt_checkpoint_test.
     */
    void unshareAll();
};

} // namespace portend::rt

#endif // PORTEND_RT_VMSTATE_H
