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

/**
 * The checks both comparisons share, in order: the racing pair's
 * record order, the record count, the set of output-producing
 * threads, each thread's record count, and per aligned record pair
 * the label and payload presence. @p payload(ra, rb, i) judges two
 * aligned records that both carry a payload and returns their
 * difference, or "" when it accepts them.
 *
 * @return the first difference, or "" when every check passed
 */
template <typename PayloadRule>
std::string
firstDifference(const rt::OutputLog &a, const rt::OutputLog &b,
                int tid1, int tid2, PayloadRule &&payload)
{
    if (tid1 >= 0 && tid2 >= 0 && tid1 != tid2 &&
        pairOrder(a, tid1, tid2) != pairOrder(b, tid1, tid2)) {
        return "racing threads' output records interleave differently";
    }
    if (a.size() != b.size()) {
        return "output operation counts differ: " +
               std::to_string(a.size()) + " vs " +
               std::to_string(b.size());
    }

    auto ta = byThread(a);
    auto tb = byThread(b);
    if (ta.size() != tb.size())
        return "sets of output-producing threads differ";
    for (const auto &[tid, recs_a] : ta) {
        auto it = tb.find(tid);
        if (it == tb.end()) {
            return "thread " + std::to_string(tid) +
                   " produced output in only one execution";
        }
        const auto &recs_b = it->second;
        if (recs_a.size() != recs_b.size()) {
            return "thread " + std::to_string(tid) +
                   " output counts differ: " +
                   std::to_string(recs_a.size()) + " vs " +
                   std::to_string(recs_b.size());
        }
        for (std::size_t i = 0; i < recs_a.size(); ++i) {
            const rt::OutputRecord &ra = *recs_a[i];
            const rt::OutputRecord &rb = *recs_b[i];
            if (ra.label != rb.label) {
                return "labels differ: " + describeRecord(ra, i) +
                       " vs " + describeRecord(rb, i);
            }
            if ((ra.value != nullptr) != (rb.value != nullptr)) {
                return "payload presence differs at " +
                       describeRecord(ra, i);
            }
            if (!ra.value)
                continue;
            std::string d = payload(ra, rb, i);
            if (!d.empty())
                return d;
        }
    }
    return "";
}

/** The two records' concrete payloads differ, or "". */
std::string
valuesDiffer(const rt::OutputRecord &ra, const rt::OutputRecord &rb,
             std::size_t i)
{
    if (ra.value->constValue() == rb.value->constValue())
        return "";
    return "values differ: " + describeRecord(ra, i) + " vs " +
           describeRecord(rb, i);
}

} // namespace

OutputComparison
compareConcreteOutputs(const rt::OutputLog &a, const rt::OutputLog &b,
                       int tid1, int tid2)
{
    OutputComparison cmp;
    cmp.diff = firstDifference(
        a, b, tid1, tid2,
        [](const rt::OutputRecord &ra, const rt::OutputRecord &rb,
           std::size_t i) -> std::string {
            if (ra.value->isConcrete())
                return rb.value->isConcrete() ? valuesDiffer(ra, rb, i)
                                              : "";
            if (ra.value->equals(*rb.value))
                return "";
            return "symbolic values differ structurally at " +
                   describeRecord(ra, i);
        });
    cmp.match = cmp.diff.empty();
    return cmp;
}

OutputComparison
compareSymbolicOutputs(const rt::OutputLog &primary,
                       const std::vector<sym::ExprPtr> &path_condition,
                       const rt::OutputLog &alternate,
                       sym::Solver &solver, int tid1, int tid2)
{
    OutputComparison cmp;
    std::vector<sym::ExprPtr> query = path_condition;
    cmp.diff = firstDifference(
        primary, alternate, tid1, tid2,
        [&query](const rt::OutputRecord &rp, const rt::OutputRecord &ra,
                 std::size_t i) -> std::string {
            if (!ra.value->isConcrete()) {
                return "alternate output not concrete at " +
                       describeRecord(ra, i);
            }
            if (rp.value->isConcrete())
                return valuesDiffer(rp, ra, i);
            query.push_back(sym::mkEq(rp.value, ra.value));
            return "";
        });
    if (!cmp.diff.empty())
        return cmp;

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
