/**
 * @file
 * Multi-path symbolic exploration (this repository's KLEE/Cloud9
 * exploration layer).
 *
 * The Executor implements the interpreter's ForkHook: when execution
 * reaches a control decision on symbolic data, it checks which sides
 * are feasible under the path condition and forks the VM state for
 * the untaken side (Fig. 5's execution tree). Exploration is bounded
 * by Mp, the number of completed paths to collect (paper §3.3's
 * "upper bound on the number of primary paths").
 *
 * Fork cost: a worklist entry is a copy-on-write VmState checkpoint
 * (rt/vmstate.h) — the fork copies page/stack/map pointers, O(pages)
 * not O(state), and stays immutable while queued. The running
 * interpreter's write barriers unshare only what it touches, and a
 * resumed state pays the same way; states that are pruned or never
 * adopted cost nothing beyond their pointer copies.
 */

#ifndef PORTEND_EXEC_EXECUTOR_H
#define PORTEND_EXEC_EXECUTOR_H

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "rt/interpreter.h"
#include "sym/solver.h"

namespace portend::exec {

/**
 * Fork-depth budget: stop forking once a path has accumulated this
 * many constraints. Deep forks correspond to branches far from the
 * race window (each feasible fork appends one constraint), so the
 * bound keeps exploration near the race the way Portend's analysis
 * window does.
 */
constexpr int kMaxForkDepth = 32;

/** Exploration limits. */
struct ExecutorOptions
{
    /** Mp: stop after collecting this many accepted paths. */
    int max_paths = 5;

    /** Safety bound on total states ever enqueued. */
    int max_states = 512;
};

/** One completed execution path. */
struct PathResult
{
    rt::VmState state;  ///< finished state (outcome set)
    sym::Model model;   ///< satisfying assignment of its path condition
};

/**
 * Bounded multi-path explorer.
 *
 * Usage: configure an Interpreter with symbolic inputs, then call
 * explore() with a policy factory (a fresh policy per resumed state;
 * policies must derive any cursor state from the VmState) and an
 * acceptance predicate (e.g., "the racing cell was touched by both
 * threads").
 */
class Executor : public rt::ForkHook
{
  public:
    explicit Executor(ExecutorOptions opts = {});

    /** Fresh-policy factory, invoked once per resumed state. */
    using PolicyFactory =
        std::function<std::unique_ptr<rt::SchedulePolicy>()>;

    /** Path acceptance predicate. */
    using Accept = std::function<bool(const rt::VmState &)>;

    /**
     * Explore from @p interp's current state until max_paths
     * accepted paths are collected or the state space is exhausted.
     *
     * @param interp       interpreter whose state seeds exploration
     * @param make_policy  produces the schedule policy per segment
     * @param accept       filters completed paths
     * @return accepted paths with satisfying models
     */
    std::vector<PathResult> explore(rt::Interpreter &interp,
                                    const PolicyFactory &make_policy,
                                    const Accept &accept);

    /** @name ForkHook interface
     * @{
     */
    bool decide(rt::Interpreter &interp, const sym::ExprPtr &cond,
                rt::DecisionKind kind) override;
    std::int64_t concretize(rt::Interpreter &interp,
                            const sym::ExprPtr &val) override;
    /** @} */

    /** The underlying solver (exposed for output comparison). */
    sym::Solver &solver() { return solver_; }

    /** Total states enqueued over the lifetime of this executor. */
    int statesCreated() const { return states_created; }

  private:
    ExecutorOptions opts;
    sym::Solver solver_;
    std::deque<rt::VmState> worklist;
    int states_created = 0;
};

/**
 * Complete a model so that every symbol of @p e is bound; unbound
 * symbols get their domain lower bound.
 */
void completeModel(const sym::ExprPtr &e, sym::Model &m);

} // namespace portend::exec

#endif // PORTEND_EXEC_EXECUTOR_H
