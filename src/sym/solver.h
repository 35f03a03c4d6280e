/**
 * @file
 * Constraint solving over symbolic expressions.
 *
 * This is the repository's stand-in for the STP solver the paper
 * uses underneath KLEE. It is a *small-model* solver: symbolic
 * inputs declare bounded domains (see Expr::symbol), candidate
 * values are enumerated per symbol (exhaustively when the domain is
 * small, via endpoint/constant/stride sampling otherwise), and a
 * pruned depth-first search over assignments decides satisfiability
 * and produces models.
 *
 * Completeness contract: when every symbol's domain was enumerated
 * exhaustively, Unsat answers are definitive. Otherwise the solver
 * answers Unknown rather than guessing, and callers treat Unknown
 * conservatively. Workload inputs in this repository use small
 * integer/flag domains, for which the search is exhaustive — the
 * same class of queries the paper's workloads generate.
 */

#ifndef PORTEND_SYM_SOLVER_H
#define PORTEND_SYM_SOLVER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "sym/expr.h"
#include "sym/interval.h"

namespace portend::sym {

/** Tri-state satisfiability verdict. */
enum class SatResult { Sat, Unsat, Unknown };

/**
 * Cap on candidate values enumerated per symbol: a wider domain is
 * sampled, and then Unsat can no longer be proved from that symbol.
 */
constexpr std::uint64_t kMaxCandidates = 128;

/** Hard cap on assignments examined per query; past it the answer is
 *  Unknown. */
constexpr std::uint64_t kMaxAssignments = 200000;

/**
 * Accumulates branch constraints along one execution path.
 *
 * Mirrors KLEE's path condition: a conjunction of I1 expressions.
 * Adding a literally-false constraint marks the condition infeasible
 * without involving the solver.
 */
class PathCondition
{
  public:
    /** Append @p c (simplified); literal true is dropped. */
    void add(const ExprPtr &c);

    /** All retained constraints. */
    const std::vector<ExprPtr> &constraints() const { return cs; }

    /** True when a literal-false constraint was added. */
    bool trivialFalse() const { return trivially_false; }

    /** Number of retained constraints. */
    std::size_t size() const { return cs.size(); }

  private:
    std::vector<ExprPtr> cs;
    bool trivially_false = false;
};

/**
 * Small-model constraint solver.
 *
 * Thread-compatible (no shared mutable state beyond stats); create
 * one per analysis.
 */
class Solver
{
  public:
    /**
     * Decide satisfiability of the conjunction of @p constraints.
     *
     * @param constraints I1 expressions
     * @param model       when non-null and the answer is Sat,
     *                    receives a satisfying assignment
     */
    SatResult checkSat(const std::vector<ExprPtr> &constraints,
                       Model *model = nullptr);

    /** True iff @p e holds on every model of @p pc (proved). */
    bool mustBeTrue(const std::vector<ExprPtr> &pc, const ExprPtr &e);

    /** True iff a model of @p pc satisfying @p e was found. */
    bool mayBeTrue(const std::vector<ExprPtr> &pc, const ExprPtr &e,
                   Model *model = nullptr);

    /** checkSat calls so far (`classify.solver_queries`). */
    std::uint64_t queries() const { return queries_; }

  private:
    struct SymbolDomain
    {
        int id;
        ExprPtr node;
        std::vector<std::int64_t> candidates;
        bool complete; ///< candidates cover the whole domain
    };

    /** Narrow @p env by pattern-matching atomic constraints. */
    static void narrowIntervals(const std::vector<ExprPtr> &cs,
                                IntervalEnv &env);

    /** Build per-symbol candidate lists from narrowed intervals. */
    std::vector<SymbolDomain>
    buildDomains(const std::vector<ExprPtr> &cs, const IntervalEnv &env,
                 const std::map<int, ExprPtr> &symbols) const;

    std::uint64_t queries_ = 0;
};

/**
 * Evaluate @p e under a partial model.
 *
 * @return the concrete value when every needed symbol is bound;
 *         nullopt otherwise. Short-circuits where possible (e.g.,
 *         LAnd with one false operand is 0 regardless of the other).
 */
std::optional<std::int64_t> evalPartial(const ExprPtr &e,
                                        const Model &partial);

} // namespace portend::sym

#endif // PORTEND_SYM_SOLVER_H
