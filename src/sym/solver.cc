#include "sym/solver.h"

#include <algorithm>
#include <functional>

#include "support/logging.h"
#include "support/observe.h"
#include "support/trace.h"
#include "sym/simplify.h"

namespace portend::sym {

void
PathCondition::add(const ExprPtr &c)
{
    ExprPtr s = simplify(c);
    if (isTrue(s))
        return;
    if (isFalse(s)) {
        trivially_false = true;
        return;
    }
    // Drop exact duplicates to keep queries small.
    for (const auto &existing : cs) {
        if (existing->equals(*s))
            return;
    }
    cs.push_back(std::move(s));
}

std::vector<ExprPtr>
PathCondition::with(const ExprPtr &extra) const
{
    std::vector<ExprPtr> out = cs;
    out.push_back(extra);
    return out;
}

std::optional<std::int64_t>
evalPartial(const ExprPtr &e, const Model &partial)
{
    switch (e->kind()) {
      case ExprKind::Const:
        return e->constValue();
      case ExprKind::Symbol: {
        auto it = partial.values.find(e->symbolId());
        if (it == partial.values.end())
            return std::nullopt;
        return Expr::truncate(it->second, e->width());
      }
      case ExprKind::Neg:
      case ExprKind::BNot:
      case ExprKind::LNot: {
        auto a = evalPartial(e->child(0), partial);
        if (!a)
            return std::nullopt;
        return Expr::applyUnary(e->kind(), *a, e->width());
      }
      case ExprKind::Ite: {
        auto c = evalPartial(e->child(0), partial);
        if (!c)
            return std::nullopt;
        return *c != 0 ? evalPartial(e->child(1), partial)
                       : evalPartial(e->child(2), partial);
      }
      case ExprKind::LAnd: {
        auto a = evalPartial(e->child(0), partial);
        auto b = evalPartial(e->child(1), partial);
        if ((a && *a == 0) || (b && *b == 0))
            return 0;
        if (a && b)
            return (*a != 0 && *b != 0) ? 1 : 0;
        return std::nullopt;
      }
      case ExprKind::LOr: {
        auto a = evalPartial(e->child(0), partial);
        auto b = evalPartial(e->child(1), partial);
        if ((a && *a != 0) || (b && *b != 0))
            return 1;
        if (a && b)
            return (*a != 0 || *b != 0) ? 1 : 0;
        return std::nullopt;
      }
      case ExprKind::Mul: {
        auto a = evalPartial(e->child(0), partial);
        auto b = evalPartial(e->child(1), partial);
        if ((a && *a == 0) || (b && *b == 0))
            return 0;
        if (a && b)
            return Expr::applyBinary(ExprKind::Mul, *a, *b, e->width());
        return std::nullopt;
      }
      default: {
        auto a = evalPartial(e->child(0), partial);
        if (!a)
            return std::nullopt;
        auto b = evalPartial(e->child(1), partial);
        if (!b)
            return std::nullopt;
        return Expr::applyBinary(e->kind(), *a, *b, e->width());
      }
    }
}

namespace {

/** Collect every Const literal mentioned anywhere in @p e. */
void
collectConstants(const ExprPtr &e, std::set<std::int64_t> &out)
{
    if (e->kind() == ExprKind::Const) {
        out.insert(e->constValue());
        return;
    }
    for (int i = 0; i < e->numChildren(); ++i)
        collectConstants(e->child(i), out);
}

/**
 * Try to narrow the interval of a symbol from one atomic
 * constraint of the shape cmp(sym, const) or cmp(const, sym).
 */
void
narrowFromAtom(const ExprPtr &c, IntervalEnv &env)
{
    ExprKind k = c->kind();
    bool cmp = k == ExprKind::Eq || k == ExprKind::Ne ||
               k == ExprKind::Slt || k == ExprKind::Sle ||
               k == ExprKind::Sgt || k == ExprKind::Sge;
    if (!cmp || c->numChildren() != 2)
        return;

    ExprPtr lhs = c->child(0);
    ExprPtr rhs = c->child(1);
    bool flipped = false;
    if (lhs->kind() == ExprKind::Const &&
        rhs->kind() == ExprKind::Symbol) {
        std::swap(lhs, rhs);
        flipped = true;
    }
    if (lhs->kind() != ExprKind::Symbol ||
        rhs->kind() != ExprKind::Const) {
        return;
    }

    if (flipped) {
        switch (k) {
          case ExprKind::Slt: k = ExprKind::Sgt; break;
          case ExprKind::Sle: k = ExprKind::Sge; break;
          case ExprKind::Sgt: k = ExprKind::Slt; break;
          case ExprKind::Sge: k = ExprKind::Sle; break;
          default: break;
        }
    }

    const int id = lhs->symbolId();
    const std::int64_t v = rhs->constValue();
    Interval cur = env.count(id)
                       ? env[id]
                       : Interval{lhs->symbolLo(), lhs->symbolHi()};
    switch (k) {
      case ExprKind::Eq:
        cur = cur.meet(Interval::point(v));
        break;
      case ExprKind::Ne:
        if (cur.lo == v)
            cur.lo = v == INT64_MAX ? v : v + 1;
        else if (cur.hi == v)
            cur.hi = v == INT64_MIN ? v : v - 1;
        break;
      case ExprKind::Slt:
        cur = cur.meet({INT64_MIN, v == INT64_MIN ? v : v - 1});
        break;
      case ExprKind::Sle:
        cur = cur.meet({INT64_MIN, v});
        break;
      case ExprKind::Sgt:
        cur = cur.meet({v == INT64_MAX ? v : v + 1, INT64_MAX});
        break;
      case ExprKind::Sge:
        cur = cur.meet({v, INT64_MAX});
        break;
      default:
        break;
    }
    env[id] = cur;
}

} // namespace

void
Solver::narrowIntervals(const std::vector<ExprPtr> &cs, IntervalEnv &env)
{
    // A few rounds are enough; atoms only reference one symbol each.
    for (int round = 0; round < 4; ++round) {
        IntervalEnv before = env;
        for (const auto &c : cs)
            narrowFromAtom(c, env);
        if (env == before)
            break;
    }
}

std::vector<Solver::SymbolDomain>
Solver::buildDomains(const std::vector<ExprPtr> &cs,
                     const IntervalEnv &env,
                     const std::map<int, ExprPtr> &symbols) const
{
    std::set<std::int64_t> literals;
    for (const auto &c : cs)
        collectConstants(c, literals);

    std::vector<SymbolDomain> out;
    for (const auto &[id, node] : symbols) {
        Interval dom{node->symbolLo(), node->symbolHi()};
        auto it = env.find(id);
        if (it != env.end())
            dom = dom.meet(it->second);

        SymbolDomain sd;
        sd.id = id;
        sd.node = node;
        if (dom.empty()) {
            sd.complete = true;
            out.push_back(std::move(sd));
            continue;
        }

        if (dom.size() <= kMaxCandidates) {
            for (std::int64_t v = dom.lo;; ++v) {
                sd.candidates.push_back(v);
                if (v == dom.hi)
                    break;
            }
            sd.complete = true;
        } else {
            // Sampled domain: endpoints, salient small values,
            // constraint literals and their neighbours, then strided
            // fill. Unsat can no longer be proved from this symbol.
            std::set<std::int64_t> cands{dom.lo, dom.hi};
            for (std::int64_t v : {std::int64_t{-1}, std::int64_t{0},
                                   std::int64_t{1}}) {
                if (dom.contains(v))
                    cands.insert(v);
            }
            for (std::int64_t l : literals) {
                for (std::int64_t d : {-1, 0, 1}) {
                    // Saturating neighbour computation.
                    std::int64_t v = l;
                    if (d == -1 && l != INT64_MIN)
                        v = l - 1;
                    else if (d == 1 && l != INT64_MAX)
                        v = l + 1;
                    if (dom.contains(v))
                        cands.insert(v);
                }
            }
            const std::uint64_t stride = dom.size() / kMaxCandidates + 1;
            for (std::uint64_t i = 0; cands.size() < kMaxCandidates; ++i) {
                std::int64_t v = dom.lo +
                                 static_cast<std::int64_t>(i * stride);
                if (!dom.contains(v))
                    break;
                cands.insert(v);
            }
            sd.candidates.assign(cands.begin(), cands.end());
            sd.complete = false;
        }
        out.push_back(std::move(sd));
    }

    // Search smallest domains first: cheapest failures come early.
    std::sort(out.begin(), out.end(),
              [](const SymbolDomain &a, const SymbolDomain &b) {
                  return a.candidates.size() < b.candidates.size();
              });
    return out;
}

SatResult
Solver::checkSat(const std::vector<ExprPtr> &constraints, Model *model)
{
    obs::Span span("sym", "solver-query");
    span.arg("constraints", static_cast<std::int64_t>(constraints.size()));
    if (obs::Collector *c = obs::collector())
        c->add(obs::Counter::SolverQueries, 1);
    queries_ += 1;

    // Normalize: fold literals, bail on literal falsity.
    std::vector<ExprPtr> cs;
    cs.reserve(constraints.size());
    for (const auto &c : constraints) {
        ExprPtr s = simplify(c);
        if (isTrue(s))
            continue;
        if (isFalse(s))
            return SatResult::Unsat;
        cs.push_back(std::move(s));
    }
    if (cs.empty()) {
        if (model)
            *model = Model{};
        return SatResult::Sat;
    }

    std::map<int, ExprPtr> symbols;
    for (const auto &c : cs)
        c->collectSymbolNodes(symbols);

    // Interval pre-pass: narrow domains, reject impossible queries.
    IntervalEnv env;
    narrowIntervals(cs, env);
    for (const auto &c : cs) {
        Interval r = evalInterval(c, env);
        if (r.singleton() && r.lo == 0)
            return SatResult::Unsat;
    }

    std::vector<SymbolDomain> domains = buildDomains(cs, env, symbols);
    bool exhaustive = true;
    for (const auto &d : domains) {
        if (d.candidates.empty()) {
            // A symbol with an empty narrowed domain: no model exists
            // (the narrowing is sound).
            return SatResult::Unsat;
        }
        exhaustive = exhaustive && d.complete;
    }

    // Pruned DFS over candidate assignments.
    Model attempt;
    std::uint64_t budget = opts.max_assignments;
    bool budget_hit = false;

    // Recursive lambda over domain index.
    std::function<bool(std::size_t)> dfs = [&](std::size_t idx) -> bool {
        if (budget == 0) {
            budget_hit = true;
            return false;
        }
        if (idx == domains.size()) {
            budget -= 1;
            for (const auto &c : cs) {
                if (c->evaluate(attempt) == 0)
                    return false;
            }
            return true;
        }
        const SymbolDomain &d = domains[idx];
        for (std::int64_t v : d.candidates) {
            attempt.values[d.id] = v;
            // Prune: any constraint already decidable and false?
            bool pruned = false;
            for (const auto &c : cs) {
                auto r = evalPartial(c, attempt);
                if (r && *r == 0) {
                    pruned = true;
                    break;
                }
            }
            if (!pruned && dfs(idx + 1))
                return true;
            attempt.values.erase(d.id);
            if (budget_hit)
                return false;
        }
        return false;
    };

    if (dfs(0)) {
        if (model)
            *model = attempt;
        return SatResult::Sat;
    }
    if (budget_hit || !exhaustive)
        return SatResult::Unknown;
    return SatResult::Unsat;
}

bool
Solver::mustBeTrue(const std::vector<ExprPtr> &pc, const ExprPtr &e)
{
    std::vector<ExprPtr> q = pc;
    q.push_back(negate(e));
    return checkSat(q, nullptr) == SatResult::Unsat;
}

bool
Solver::mayBeTrue(const std::vector<ExprPtr> &pc, const ExprPtr &e,
                  Model *model)
{
    std::vector<ExprPtr> q = pc;
    q.push_back(e);
    return checkSat(q, model) == SatResult::Sat;
}

std::optional<Model>
Solver::witness(const std::vector<ExprPtr> &constraints)
{
    Model m;
    if (checkSat(constraints, &m) == SatResult::Unsat)
        return std::nullopt;
    for (const auto &[id, node] : collectSymbols(constraints)) {
        if (!m.values.count(id))
            m.values[id] = node->symbolLo();
    }
    return m;
}

std::map<int, ExprPtr>
collectSymbols(const std::vector<ExprPtr> &constraints)
{
    std::map<int, ExprPtr> symbols;
    for (const auto &c : constraints)
        c->collectSymbolNodes(symbols);
    return symbols;
}

} // namespace portend::sym
