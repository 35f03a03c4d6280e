#include "exec/executor.h"

#include "support/logging.h"
#include "support/observe.h"
#include "support/trace.h"
#include "sym/simplify.h"

namespace portend::exec {

Executor::Executor(ExecutorOptions opts) : opts(opts) {}

void
completeModel(const sym::ExprPtr &e, sym::Model &m)
{
    std::map<int, sym::ExprPtr> symbols;
    e->collectSymbolNodes(symbols);
    for (const auto &[id, node] : symbols) {
        if (!m.values.count(id))
            m.values[id] = node->symbolLo();
    }
}

bool
Executor::decide(rt::Interpreter &interp, const sym::ExprPtr &cond,
                 rt::DecisionKind kind)
{
    (void)kind;
    const auto &pc = interp.state().path.constraints();

    sym::SatResult true_side = solver_.checkSat(
        [&] {
            auto q = pc;
            q.push_back(cond);
            return q;
        }(),
        nullptr);
    sym::SatResult false_side = solver_.checkSat(
        [&] {
            auto q = pc;
            q.push_back(sym::negate(cond));
            return q;
        }(),
        nullptr);

    const bool t_ok = true_side != sym::SatResult::Unsat;
    const bool f_ok = false_side != sym::SatResult::Unsat;

    if (t_ok && f_ok) {
        // Fork the false side if we still have state and fork-depth
        // budget; the clone re-executes the deciding instruction and
        // consumes the forced decision instead of calling back here.
        // The clone is a COW checkpoint: cheap to take, and immutable
        // on the worklist until adopted.
        if (states_created < opts.max_states &&
            static_cast<int>(pc.size()) < kMaxForkDepth) {
            OBS_SPAN("sym", "path-fork");
            if (obs::Collector *c = obs::collector())
                c->add(obs::Counter::SymPathForks, 1);
            rt::VmState clone = interp.state();
            clone.forced_decisions.push_back(false);
            // The clone re-executes the deciding instruction inside
            // the same scheduling segment; no scheduler pick must
            // happen in between or trace cursors would shift.
            clone.resume_in_segment = true;
            clone.resume_first = true;
            worklist.push_back(std::move(clone));
            states_created += 1;
        }
        return true;
    }
    if (t_ok)
        return true;
    if (f_ok)
        return false;
    // Both sides unsatisfiable: the path condition itself is
    // infeasible (should have been pruned earlier); take true and
    // let the final model check discard the path.
    PORTEND_WARN("decision with infeasible path condition");
    return true;
}

std::int64_t
Executor::concretize(rt::Interpreter &interp, const sym::ExprPtr &val)
{
    sym::Model m;
    sym::SatResult r =
        solver_.checkSat(interp.state().path.constraints(), &m);
    if (r == sym::SatResult::Unsat)
        PORTEND_WARN("concretizing under infeasible path condition");
    completeModel(val, m);
    return val->evaluate(m);
}

std::vector<PathResult>
Executor::explore(rt::Interpreter &interp,
                  const PolicyFactory &make_policy, const Accept &accept)
{
    std::vector<PathResult> results;
    worklist.clear();
    worklist.push_back(interp.state());
    states_created += 1;

    while (!worklist.empty() &&
           static_cast<int>(results.size()) < opts.max_paths) {
        rt::VmState state = std::move(worklist.front());
        worklist.pop_front();

        interp.setState(std::move(state));
        std::unique_ptr<rt::SchedulePolicy> policy = make_policy();
        interp.setPolicy(policy.get());
        interp.setForkHook(this);

        rt::RunOutcome outcome = interp.run();
        interp.setPolicy(nullptr);

        if (outcome == rt::RunOutcome::Aborted)
            continue; // pruned: schedule diverged from the trace
        if (!accept(interp.state()))
            continue;

        sym::Model model;
        sym::SatResult sat = solver_.checkSat(
            interp.state().path.constraints(), &model);
        if (sat == sym::SatResult::Unsat)
            continue; // infeasible leftovers of unknown decisions

        PathResult pr;
        pr.state = interp.state();
        pr.model = std::move(model);
        results.push_back(std::move(pr));
    }
    return results;
}

} // namespace portend::exec
