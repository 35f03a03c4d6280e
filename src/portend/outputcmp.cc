#include "portend/outputcmp.h"

#include <map>
#include <sstream>

#include "sym/simplify.h"

namespace portend::core {

namespace {

std::string
describeRecord(const rt::OutputRecord &r, std::size_t i)
{
    std::ostringstream os;
    os << "output[" << i << "] at "
       << (r.loc ? r.loc->toString() : ir::SourceLoc{}.toString()) << " (T"
       << r.tid << "): " << r.toString();
    return os.str();
}

/**
 * Group records by emitting thread, preserving per-thread order.
 *
 * Comparison is per-thread: the interleaving of records from
 * different threads varies with scheduling even between equivalent
 * executions (the enforcement itself perturbs it); what a race can
 * corrupt is the *content and order of each thread's own output*.
 */
std::map<int, std::vector<const rt::OutputRecord *>>
byThread(const rt::OutputLog &log)
{
    std::map<int, std::vector<const rt::OutputRecord *>> out;
    for (const auto &r : log.records)
        out[r.tid].push_back(&r);
    return out;
}

/** Compare one pair of records; returns empty string on match. */
std::string
compareRecords(const rt::OutputRecord &ra, const rt::OutputRecord &rb,
               std::size_t i)
{
    if (ra.label != rb.label) {
        return "labels differ: " + describeRecord(ra, i) + " vs " +
               describeRecord(rb, i);
    }
    const bool has_a = ra.value != nullptr;
    const bool has_b = rb.value != nullptr;
    if (has_a != has_b)
        return "payload presence differs at " + describeRecord(ra, i);
    if (has_a && ra.value->isConcrete() && rb.value->isConcrete() &&
        ra.value->constValue() != rb.value->constValue()) {
        return "values differ: " + describeRecord(ra, i) + " vs " +
               describeRecord(rb, i);
    }
    return "";
}


/**
 * Relative order of the two racing threads' records in the global
 * stream; reordering them is the race's observable effect.
 */
std::vector<int>
pairOrder(const rt::OutputLog &log, int tid1, int tid2)
{
    std::vector<int> order;
    for (const auto &r : log.records) {
        if (r.tid == tid1 || r.tid == tid2)
            order.push_back(r.tid);
    }
    return order;
}

} // namespace

OutputComparison
compareConcreteOutputs(const rt::OutputLog &a, const rt::OutputLog &b,
                       int tid1, int tid2)
{
    if (tid1 >= 0 && tid2 >= 0 && tid1 != tid2 &&
        pairOrder(a, tid1, tid2) != pairOrder(b, tid1, tid2)) {
        OutputComparison cmp;
        cmp.diff = "racing threads' output records interleave "
                   "differently";
        return cmp;
    }
    OutputComparison cmp;
    if (a.size() != b.size()) {
        std::ostringstream os;
        os << "output operation counts differ: " << a.size() << " vs "
           << b.size();
        cmp.diff = os.str();
        return cmp;
    }
    // Fast path: identical concrete streams.
    if (a.concrete_chain == b.concrete_chain &&
        a.concrete_chain.count() == a.size()) {
        cmp.match = true;
        return cmp;
    }

    auto ta = byThread(a);
    auto tb = byThread(b);
    if (ta.size() != tb.size()) {
        cmp.diff = "sets of output-producing threads differ";
        return cmp;
    }
    for (const auto &[tid, recs_a] : ta) {
        auto it = tb.find(tid);
        if (it == tb.end()) {
            cmp.diff = "thread " + std::to_string(tid) +
                       " produced output in only one execution";
            return cmp;
        }
        const auto &recs_b = it->second;
        if (recs_a.size() != recs_b.size()) {
            cmp.diff = "thread " + std::to_string(tid) +
                       " output counts differ: " +
                       std::to_string(recs_a.size()) + " vs " +
                       std::to_string(recs_b.size());
            return cmp;
        }
        for (std::size_t i = 0; i < recs_a.size(); ++i) {
            std::string d =
                compareRecords(*recs_a[i], *recs_b[i], i);
            if (!d.empty()) {
                cmp.diff = d;
                return cmp;
            }
            // Fully-concrete comparison requires value equality.
            const rt::OutputRecord &ra = *recs_a[i];
            const rt::OutputRecord &rb = *recs_b[i];
            if (ra.value && !ra.value->isConcrete() &&
                !ra.value->equals(*rb.value)) {
                cmp.diff = "symbolic values differ structurally at " +
                           describeRecord(ra, i);
                return cmp;
            }
        }
    }
    cmp.match = true;
    return cmp;
}

OutputComparison
compareSymbolicOutputs(const rt::OutputLog &primary,
                       const std::vector<sym::ExprPtr> &path_condition,
                       const rt::OutputLog &alternate,
                       sym::Solver &solver, int tid1, int tid2)
{
    OutputComparison cmp;
    if (tid1 >= 0 && tid2 >= 0 && tid1 != tid2 &&
        pairOrder(primary, tid1, tid2) !=
            pairOrder(alternate, tid1, tid2)) {
        cmp.diff = "racing threads' output records interleave "
                   "differently";
        return cmp;
    }
    if (primary.size() != alternate.size()) {
        std::ostringstream os;
        os << "output operation counts differ: " << primary.size()
           << " vs " << alternate.size();
        cmp.diff = os.str();
        return cmp;
    }

    auto tp = byThread(primary);
    auto ta = byThread(alternate);
    if (tp.size() != ta.size()) {
        cmp.diff = "sets of output-producing threads differ";
        return cmp;
    }

    std::vector<sym::ExprPtr> query = path_condition;
    for (const auto &[tid, recs_p] : tp) {
        auto it = ta.find(tid);
        if (it == ta.end()) {
            cmp.diff = "thread " + std::to_string(tid) +
                       " produced output in only one execution";
            return cmp;
        }
        const auto &recs_a = it->second;
        if (recs_p.size() != recs_a.size()) {
            cmp.diff = "thread " + std::to_string(tid) +
                       " output counts differ: " +
                       std::to_string(recs_p.size()) + " vs " +
                       std::to_string(recs_a.size());
            return cmp;
        }
        for (std::size_t i = 0; i < recs_p.size(); ++i) {
            const rt::OutputRecord &rp = *recs_p[i];
            const rt::OutputRecord &ra = *recs_a[i];
            if (rp.label != ra.label) {
                cmp.diff = "labels differ: " + describeRecord(rp, i) +
                           " vs " + describeRecord(ra, i);
                return cmp;
            }
            const bool has_p = rp.value != nullptr;
            const bool has_a = ra.value != nullptr;
            if (has_p != has_a) {
                cmp.diff = "payload presence differs at " +
                           describeRecord(rp, i);
                return cmp;
            }
            if (!has_p)
                continue;
            if (!ra.value->isConcrete()) {
                cmp.diff = "alternate output not concrete at " +
                           describeRecord(ra, i);
                return cmp;
            }
            if (rp.value->isConcrete()) {
                if (rp.value->constValue() != ra.value->constValue()) {
                    cmp.diff = "values differ: " +
                               describeRecord(rp, i) + " vs " +
                               describeRecord(ra, i);
                    return cmp;
                }
                continue;
            }
            query.push_back(sym::mkEq(rp.value, ra.value));
        }
    }

    // The concrete outputs must be admissible under the primary's
    // constraints: one satisfiability query over the conjunction.
    sym::SatResult r = solver.checkSat(query, nullptr);
    if (r == sym::SatResult::Sat) {
        cmp.match = true;
        return cmp;
    }
    cmp.diff = r == sym::SatResult::Unsat
                   ? "alternate outputs violate primary constraints"
                   : "solver could not validate output equivalence";
    return cmp;
}

} // namespace portend::core
