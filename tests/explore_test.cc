/** @file Exhaustive cross-checks for the schedule explorer.
 *
 * For micro programs small enough to enumerate *every* interleaving,
 * the dpor explorer's pruned schedule set must cover every
 * Mazurkiewicz-trace equivalence class, count no class twice, and
 * execute fewer runs than brute-force enumeration. The enumeration
 * itself brute-forces the scheduler decision tree with
 * rt::GuidedPolicy, so ground truth and explorer share one
 * signature function and one execution engine.
 *
 * The exhaustive suites are deliberately exponential; they carry the
 * ctest `slow` label (excluded from the TSan CI job).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "explore/explorer.h"
#include "flip_gadget.h"
#include "ir/builder.h"
#include "portend/portend.h"
#include "rt/interpreter.h"
#include "rt/policy.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/trace.h"
#include "workloads/registry.h"

namespace portend {
namespace {

using ir::I;
using ir::R;
using K = sym::ExprKind;

/** Two symmetric writers touching two shared cells in opposite
 *  order: conflicting pairs on both cells, no synchronization. */
ir::Program
crossWriters()
{
    ir::ProgramBuilder pb("cross");
    ir::GlobalId x = pb.global("x");
    ir::GlobalId y = pb.global("y");
    auto &a = pb.function("wa", 1);
    a.to(a.block("e"));
    a.store(x, I(0), I(1));
    a.store(y, I(0), I(2));
    a.retVoid();
    auto &b = pb.function("wb", 1);
    b.to(b.block("e"));
    b.store(y, I(0), I(3));
    b.store(x, I(0), I(4));
    b.retVoid();
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    ir::Reg t1 = m.threadCreate("wa", I(0));
    ir::Reg t2 = m.threadCreate("wb", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

/** Three writers with staggered private preambles appending to one
 *  shared cell: many classes, heavily skewed random sampling. */
ir::Program
staggeredWriters()
{
    ir::ProgramBuilder pb("staggered");
    ir::GlobalId log = pb.global("log");
    std::vector<std::string> names;
    for (int w = 0; w < 3; ++w) {
        std::string name = "w" + std::to_string(w);
        names.push_back(name);
        ir::GlobalId priv = pb.global(name + "_priv");
        auto &f = pb.function(name, 1);
        f.to(f.block("e"));
        for (int i = 0; i < w; ++i)
            f.store(priv, I(0), I(i)); // private stagger
        ir::Reg lv = f.load(log);
        f.store(log, I(0), R(f.bin(K::Add, R(lv), I(1 << w))));
        f.retVoid();
    }
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    std::vector<ir::Reg> tids;
    for (const auto &n : names)
        tids.push_back(m.threadCreate(n, I(0)));
    for (ir::Reg t : tids)
        m.threadJoin(R(t));
    m.halt();
    return pb.build();
}

/** Two lock-protected writers: the backtrack target is blocked at
 *  the flip point, exercising the persistent-set widening rule. */
ir::Program
lockedWriters()
{
    ir::ProgramBuilder pb("locked");
    ir::GlobalId g = pb.global("g");
    ir::SyncId mx = pb.mutex("m");
    for (int w = 0; w < 2; ++w) {
        auto &f = pb.function("w" + std::to_string(w), 1);
        f.to(f.block("e"));
        f.lock(mx);
        ir::Reg v = f.load(g);
        f.store(g, I(0), R(f.bin(K::Add, R(v), I(w + 1))));
        f.unlock(mx);
        f.retVoid();
    }
    auto &m = pb.function("main", 0);
    m.to(m.block("e"));
    ir::Reg t1 = m.threadCreate("w0", I(0));
    ir::Reg t2 = m.threadCreate("w1", I(0));
    m.threadJoin(R(t1));
    m.threadJoin(R(t2));
    m.halt();
    return pb.build();
}

/** Run the whole program under a guided prefix + rotate fallback
 *  (the same completion the analyzer's guided alternates use). */
rt::ScheduleObservation
runGuided(const ir::Program &p,
          const std::vector<rt::ThreadId> &prefix)
{
    rt::ExecOptions eo;
    eo.preempt_on_memory = true;
    eo.max_steps = 100000;
    rt::Interpreter interp(p, eo);
    rt::RotatePolicy rotate;
    rt::GuidedPolicy pol(prefix, &rotate);
    interp.setPolicy(&pol);
    rt::RunOutcome oc = interp.run();
    EXPECT_EQ(oc, rt::RunOutcome::Exited);
    return pol.takeObservation();
}

/**
 * Brute-force every interleaving: DFS over the scheduler decision
 * tree, branching at every decision point over every enabled
 * thread. Returns the number of complete schedules executed.
 */
int
enumerateAll(const ir::Program &p, std::set<std::string> &classes,
             std::vector<rt::ThreadId> prefix = {})
{
    rt::ScheduleObservation obs = runGuided(p, prefix);
    classes.insert(explore::signatureHash(obs));
    int runs = 1;
    for (std::size_t i = prefix.size(); i < obs.picks.size(); ++i) {
        for (rt::ThreadId t : obs.enabled(i)) {
            if (t == obs.picks[i])
                continue;
            std::vector<rt::ThreadId> child(obs.picks.begin(),
                                            obs.picks.begin() +
                                                static_cast<long>(i));
            child.push_back(t);
            runs += enumerateAll(p, classes, child);
        }
    }
    return runs;
}

/** Drive a pure-systematic (no seeded phase) exploration of
 *  the whole program; returns runs executed. */
int
exploreAll(const ir::Program &p, explore::ScheduleExplorer &ex)
{
    int runs = 0;
    while (std::optional<explore::PostSpec> spec = ex.next()) {
        EXPECT_EQ(spec->kind, explore::PostSpec::Kind::Guided);
        ex.record(runGuided(p, spec->prefix));
        runs += 1;
    }
    return runs;
}

explore::ExplorerOptions
exhaustiveOptions()
{
    explore::ExplorerOptions xo;
    xo.budget = 1 << 20;       // never the stopping condition
    xo.max_runs = 1 << 20;
    xo.preemption_bound = 64;  // effectively unbounded here
    xo.random_first = false;   // measure pure systematic coverage
    return xo;
}

class ExploreExhaustiveTest : public ::testing::Test
{
  protected:
    void
    crossCheck(const ir::Program &p)
    {
        std::set<std::string> truth;
        int all_runs = enumerateAll(p, truth);
        ASSERT_GT(truth.size(), 1u) << p.name;

        explore::ScheduleExplorer ex(exhaustiveOptions());
        int runs = exploreAll(p, ex);

        // Coverage: every Mazurkiewicz class, no phantom classes
        // (the explorer executes real schedules, so its signatures
        // are a subset by construction), no duplicate counting.
        EXPECT_EQ(ex.signatures(), truth) << p.name;
        EXPECT_EQ(ex.distinct(),
                  static_cast<int>(ex.signatures().size()))
            << p.name;
        EXPECT_TRUE(ex.exhausted()) << p.name;

        // Pruning: strictly fewer executions than brute force.
        EXPECT_LT(runs, all_runs) << p.name;
        EXPECT_EQ(runs, ex.runs()) << p.name;
    }
};

TEST_F(ExploreExhaustiveTest, CrossWritersCoverAllClasses)
{
    crossCheck(crossWriters());
}

TEST_F(ExploreExhaustiveTest, StaggeredWritersCoverAllClasses)
{
    crossCheck(staggeredWriters());
}

TEST_F(ExploreExhaustiveTest, LockedWritersCoverAllClasses)
{
    crossCheck(lockedWriters());
}

// The signature must identify Mazurkiewicz classes: schedules that
// only reorder independent accesses collapse, schedules that
// reorder conflicting accesses do not.
TEST(SignatureTest, IndependentReorderingsCollapse)
{
    rt::ScheduleObservation a;
    // t0 writes site 0, t1 writes site 1 — independent.
    a.accesses = {{0, 0, true, 0}, {1, 1, true, 1}};
    rt::ScheduleObservation b;
    b.accesses = {{1, 1, true, 0}, {0, 0, true, 1}};
    EXPECT_EQ(explore::canonicalSignature(a),
              explore::canonicalSignature(b));
}

TEST(SignatureTest, ConflictingReorderingsStayDistinct)
{
    rt::ScheduleObservation a;
    a.accesses = {{0, 7, true, 0}, {1, 7, true, 1}};
    rt::ScheduleObservation b;
    b.accesses = {{1, 7, true, 0}, {0, 7, true, 1}};
    EXPECT_NE(explore::canonicalSignature(a),
              explore::canonicalSignature(b));
}

TEST(SignatureTest, ReadReadPairsAreIndependent)
{
    rt::ScheduleObservation a;
    a.accesses = {{0, 7, false, 0}, {1, 7, false, 1}};
    rt::ScheduleObservation b;
    b.accesses = {{1, 7, false, 0}, {0, 7, false, 1}};
    EXPECT_EQ(explore::canonicalSignature(a),
              explore::canonicalSignature(b));
}

TEST(SignatureTest, ProgramOrderIsDependence)
{
    // Same thread, different sites: order is program order and must
    // not collapse.
    rt::ScheduleObservation a;
    a.accesses = {{0, 1, true, 0}, {0, 2, true, 1}};
    rt::ScheduleObservation b;
    b.accesses = {{0, 2, true, 0}, {0, 1, true, 1}};
    EXPECT_NE(explore::canonicalSignature(a),
              explore::canonicalSignature(b));
}

TEST(SignatureTest, HashIsStable16Hex)
{
    rt::ScheduleObservation a;
    a.accesses = {{0, 1, true, 0}};
    std::string h = explore::signatureHash(a);
    EXPECT_EQ(h.size(), 16u);
    EXPECT_EQ(h.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(h, explore::signatureHash(a));
}

// The seeded opening phase comes first, with the legacy seed layout
// (seed_base + 1, + 2, ...), and stopping conditions do not truncate
// it.
TEST(ExplorerModeTest, DporRunsTheRandomPhaseFirstAndWhole)
{
    explore::ExplorerOptions xo;
    xo.budget = 2;
    xo.seed_base = 48;
    explore::ScheduleExplorer ex(xo);

    rt::ScheduleObservation one;
    one.accesses = {{0, 1, true, 0}};
    rt::ScheduleObservation two;
    two.accesses = {{1, 1, true, 0}};

    std::optional<explore::PostSpec> s1 = ex.next();
    ASSERT_TRUE(s1.has_value());
    EXPECT_EQ(s1->kind, explore::PostSpec::Kind::Random);
    EXPECT_EQ(s1->seed, 49u);
    EXPECT_TRUE(ex.record(one));

    // Distinct budget is already met after the next record, yet the
    // second seed must still be issued before stopping.
    std::optional<explore::PostSpec> s2 = ex.next();
    ASSERT_TRUE(s2.has_value());
    EXPECT_EQ(s2->kind, explore::PostSpec::Kind::Random);
    EXPECT_EQ(s2->seed, 50u);
    EXPECT_TRUE(ex.record(two));
    EXPECT_EQ(ex.distinct(), 2);

    EXPECT_FALSE(ex.next().has_value());
}

// Duplicate classes are recognized and not double counted.
TEST(ExplorerModeTest, DuplicateSignaturesAreNotDistinct)
{
    explore::ExplorerOptions xo;
    xo.budget = 2;
    explore::ScheduleExplorer ex(xo);
    rt::ScheduleObservation obs;
    obs.accesses = {{0, 1, true, 0}};
    ASSERT_TRUE(ex.next().has_value());
    EXPECT_TRUE(ex.record(obs));
    ASSERT_TRUE(ex.next().has_value());
    EXPECT_FALSE(ex.record(obs));
    EXPECT_EQ(ex.distinct(), 1);
}

// ---------------------------------------------------------------------------
// Lazy expansion and the one-pass signature, against references
// built the straightforward way
// ---------------------------------------------------------------------------

using Access = rt::ScheduleObservation::Access;

/** Foata signature by the pairwise definition: an event's level is
 *  one past the deepest earlier event it depends on. */
std::string
pairwiseSignature(const rt::ScheduleObservation &obs)
{
    const std::vector<Access> &ev = obs.accesses;
    std::vector<int> level(ev.size(), 0);
    for (std::size_t i = 0; i < ev.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (rt::ScheduleObservation::dependent(ev[j], ev[i]))
                level[i] = std::max(level[i], level[j] + 1);
        }
    }
    std::vector<std::tuple<int, rt::ThreadId, int, bool>> keys;
    for (std::size_t i = 0; i < ev.size(); ++i)
        keys.emplace_back(level[i], ev[i].tid, ev[i].site, ev[i].write);
    std::sort(keys.begin(), keys.end());
    std::string out;
    int cur = -1;
    for (const auto &[lv, tid, site, write] : keys) {
        if (lv != cur) {
            if (cur >= 0)
                out += '|';
            cur = lv;
        } else {
            out += ',';
        }
        out += 't' + std::to_string(tid) + (write ? "w" : "r") +
               std::to_string(site);
    }
    return out;
}

/** 16 lowercase hex digits of FNV-1a over @p text. */
std::string
fnvHex(const std::string &text)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a(text)));
    return buf;
}

/**
 * An explorer that expands every run inside record(), over
 * its whole observation, with signatures from the pairwise layering:
 * the reference ScheduleExplorer must match step for step.
 */
class EagerExplorer
{
  public:
    explicit EagerExplorer(explore::ExplorerOptions o) : opts(std::move(o))
    {
        if (opts.max_runs <= 0)
            opts.max_runs = opts.budget * 4 + 4;
        seen_ = opts.known;
        push({}, 0);
    }

    std::optional<explore::PostSpec>
    next()
    {
        if (opts.random_first && random_issued_ < opts.budget) {
            runs_ += 1;
            random_issued_ += 1;
            last_preemptions_ = 0;
            return explore::PostSpec::random(opts.seed_base +
                                             random_issued_);
        }
        if (distinct_ >= opts.budget || runs_ >= opts.max_runs)
            return std::nullopt;
        if (frontier.empty()) {
            exhausted_ = true;
            return std::nullopt;
        }
        auto [prefix, preemptions] = std::move(frontier.front());
        frontier.pop_front();
        runs_ += 1;
        last_preemptions_ = preemptions;
        return explore::PostSpec::guided(std::move(prefix));
    }

    bool
    record(const rt::ScheduleObservation &obs)
    {
        last_sig_ = fnvHex(pairwiseSignature(obs));
        const bool fresh = seen_.insert(last_sig_).second;
        if (fresh)
            distinct_ += 1;
        if (last_preemptions_ < opts.preemption_bound)
            expand(obs, last_preemptions_ + 1);
        return fresh;
    }

    int distinct() const { return distinct_; }
    int runs() const { return runs_; }
    bool exhausted() const { return exhausted_; }
    const std::string &lastSignature() const { return last_sig_; }
    const std::set<std::string> &signatures() const { return seen_; }

  private:
    void
    push(std::vector<rt::ThreadId> prefix, int preemptions)
    {
        if (issued_.insert(prefix).second)
            frontier.emplace_back(std::move(prefix), preemptions);
    }

    void
    expand(const rt::ScheduleObservation &obs, int preemptions)
    {
        const std::vector<Access> &ev = obs.accesses;
        const std::size_t window = std::min(
            ev.size(), explore::ScheduleExplorer::kExpandWindow);
        for (std::size_t j = 1; j < window; ++j) {
            for (std::size_t i = 0; i < j; ++i) {
                const Access &a = ev[i];
                const Access &b = ev[j];
                if (a.tid == b.tid || a.pick < 0 || a.site != b.site ||
                    !(a.write || b.write))
                    continue;
                const auto p = static_cast<std::size_t>(a.pick);
                if (p >= obs.picks.size() || p >= obs.enabledCount())
                    continue;
                const std::vector<rt::ThreadId> base(
                    obs.picks.begin(),
                    obs.picks.begin() + static_cast<long>(p));
                const std::span<const rt::ThreadId> en = obs.enabled(p);
                if (std::find(en.begin(), en.end(), b.tid) != en.end()) {
                    std::vector<rt::ThreadId> child = base;
                    child.push_back(b.tid);
                    for (std::size_t k = 0; k < j; ++k) {
                        if (ev[k].tid == b.tid && ev[k].pick >= a.pick)
                            child.push_back(b.tid);
                    }
                    push(std::move(child), preemptions);
                } else {
                    for (rt::ThreadId t : en) {
                        if (t == obs.picks[p])
                            continue;
                        std::vector<rt::ThreadId> child = base;
                        child.push_back(t);
                        push(std::move(child), preemptions);
                    }
                }
            }
        }
    }

    explore::ExplorerOptions opts;
    std::deque<std::pair<std::vector<rt::ThreadId>, int>> frontier;
    std::set<std::vector<rt::ThreadId>> issued_;
    std::set<std::string> seen_;
    std::string last_sig_;
    int random_issued_ = 0;
    int runs_ = 0;
    int distinct_ = 0;
    int last_preemptions_ = 0;
    bool exhausted_ = false;
};

/** Replace @p obs's decisions by @p decisions random ones over
 *  @p threads threads: runnable sets sometimes lack the pick, and
 *  sometimes the last set is missing. */
void
drawDecisions(Rng &rng, rt::ScheduleObservation &obs, int threads,
              int decisions)
{
    obs.picks.clear();
    obs.keepEnabled(0);
    for (int d = 0; d < decisions; ++d) {
        const auto pick = static_cast<rt::ThreadId>(rng.below(threads));
        obs.picks.push_back(pick);
        std::vector<rt::ThreadId> en;
        for (rt::ThreadId t = 0; t < threads; ++t) {
            if (t == pick ? !rng.chance(1, 8) : rng.chance(1, 2))
                en.push_back(t);
        }
        obs.addEnabled(en);
    }
    if (decisions > 0 && rng.chance(1, 5))
        obs.keepEnabled(obs.enabledCount() - 1);
}

/**
 * A random run over up to three threads whose accesses reference
 * its decisions in order. With @p spin, thread 0 spins reading
 * site 1 past the expansion window while the others touch private
 * sites, and thread 1 writes site 1 once before the window ends and
 * again after it.
 */
rt::ScheduleObservation
randomRun(Rng &rng, bool spin)
{
    rt::ScheduleObservation obs;
    const auto threads = static_cast<int>(1 + rng.below(3));
    const auto decisions = static_cast<int>(
        spin ? 40 + rng.below(10) : 2 + rng.below(12));
    drawDecisions(rng, obs, threads, decisions);

    const int n = spin ? 560 + static_cast<int>(rng.below(100))
                       : 8 + static_cast<int>(rng.below(40));
    const int flag_write = static_cast<int>(rng.range(100, 500));
    int pick = -1;
    for (int i = 0; i < n; ++i) {
        if (pick + 1 < decisions && rng.chance(1, spin ? 16 : 3))
            pick += 1;
        Access a;
        a.pick = pick;
        if (!spin) {
            a.tid = static_cast<rt::ThreadId>(rng.below(threads));
            a.site = static_cast<int>(rng.range(-2, 3));
            a.write = rng.chance(1, 2);
        } else if (threads > 1 && (i == flag_write || i == 540)) {
            a.tid = 1;
            a.site = 1;
            a.write = true;
        } else if (threads > 1 && rng.chance(1, 8)) {
            a.tid = static_cast<rt::ThreadId>(1 + rng.below(threads - 1));
            a.site = 10 + a.tid;
            a.write = rng.chance(1, 2);
        } else {
            a.tid = 0;
            a.site = 1;
        }
        obs.accesses.push_back(a);
    }
    return obs;
}

/** Every observable of the two explorers agrees. */
void
expectSameState(const EagerExplorer &want,
                const explore::ScheduleExplorer &got)
{
    EXPECT_EQ(want.runs(), got.runs());
    EXPECT_EQ(want.distinct(), got.distinct());
    EXPECT_EQ(want.exhausted(), got.exhausted());
    EXPECT_EQ(want.lastSignature(), got.lastSignature());
    EXPECT_EQ(want.signatures(), got.signatures());
}

/** What the equivalence streams exercised. */
struct StreamTally
{
    int guided = 0;    ///< systematic schedules issued
    int long_runs = 0; ///< runs longer than the expansion window
    int exhausted = 0; ///< streams ended by an empty candidate space
    int capped = 0;    ///< streams ended by the run cap
};

/**
 * Drive both explorers through one seeded stream: runs are mostly
 * drawn from a two-run pool, so classes repeat and the systematic
 * phase runs, and some records are skipped. Every step must agree.
 */
void
compareStream(const explore::ExplorerOptions &xo, Rng &rng,
              StreamTally &tally)
{
    std::vector<rt::ScheduleObservation> pool;
    for (int i = 0; i < 2; ++i)
        pool.push_back(randomRun(rng, rng.chance(1, 10)));
    // Known classes include a pooled one, which then never counts
    // as distinct.
    explore::ExplorerOptions opts = xo;
    if (!opts.known.empty())
        opts.known.insert(fnvHex(pairwiseSignature(pool[0])));
    EagerExplorer want(opts);
    explore::ScheduleExplorer got(opts);
    for (;;) {
        const std::optional<explore::PostSpec> w = want.next();
        const std::optional<explore::PostSpec> g = got.next();
        ASSERT_EQ(w.has_value(), g.has_value());
        expectSameState(want, got);
        if (!w) {
            if (want.exhausted())
                tally.exhausted += 1;
            else if (want.distinct() < opts.budget)
                tally.capped += 1;
            return;
        }
        ASSERT_EQ(w->kind, g->kind);
        EXPECT_EQ(w->seed, g->seed);
        ASSERT_EQ(w->prefix, g->prefix);
        if (w->kind == explore::PostSpec::Kind::Guided)
            tally.guided += 1;
        if (rng.chance(1, 6))
            continue; // never reached the race
        // A new run, or a pooled class reached by the same or by
        // other decisions.
        rt::ScheduleObservation run;
        if (rng.chance(1, 5)) {
            run = randomRun(rng, rng.chance(1, 16));
        } else {
            run = pool[rng.below(pool.size())];
            if (rng.chance(1, 2))
                drawDecisions(rng, run, 3,
                              static_cast<int>(run.picks.size()));
        }
        if (run.accesses.size() > explore::ScheduleExplorer::kExpandWindow)
            tally.long_runs += 1;
        EXPECT_EQ(want.record(run), got.record(run));
        expectSameState(want, got);
    }
}

// Queueing runs and expanding them only when the frontier runs dry
// issues exactly the schedules eager expansion issues, in the same
// order, and stops on the same call for the same reason.
TEST(ExplorerLazyTest, IssuesWhatEagerExpansionIssues)
{
    StreamTally tally;
    for (int budget = 1; budget <= 6; ++budget) {
        for (int bound = 0; bound <= 4; ++bound) {
            for (const bool random_first : {true, false}) {
                for (const bool known : {false, true}) {
                    SCOPED_TRACE(
                        "budget " + std::to_string(budget) + " bound " +
                        std::to_string(bound) + " random_first " +
                        std::to_string(random_first) + " known " +
                        std::to_string(known));
                    Rng rng(static_cast<std::uint64_t>(
                        budget * 100 + bound * 10 + random_first * 2 +
                        known));
                    explore::ExplorerOptions xo;
                    xo.budget = budget;
                    xo.preemption_bound = bound;
                    xo.seed_base = static_cast<std::uint64_t>(budget) * 16;
                    xo.random_first = random_first;
                    // Some streams get a tight run cap.
                    xo.max_runs = rng.chance(1, 3) ? budget + 2 : 0;
                    if (known)
                        xo.known = {"0123456789abcdef"};
                    compareStream(xo, rng, tally);
                }
            }
        }
    }
    // The streams reach the systematic phase, feed runs longer than
    // the window, and end both by exhaustion and by the run cap.
    EXPECT_GE(tally.guided, 200);
    EXPECT_GE(tally.long_runs, 20);
    EXPECT_GE(tally.exhausted, 20);
    EXPECT_GE(tally.capped, 8);
}

/** A random run with sparse thread ids (the test-built default -1
 *  among them) and negative pseudo-sites. */
rt::ScheduleObservation
sparseRun(Rng &rng)
{
    static const rt::ThreadId tids[] = {-1, 0, 1, 3, 17, 100000};
    static const int sites[] = {-100017, -100000, -7, -2, -1,
                                0,       1,       5,  4096};
    const std::size_t threads = 1 + rng.below(std::size(tids));
    const std::size_t cells = 1 + rng.below(std::size(sites));
    rt::ScheduleObservation obs;
    const auto n = rng.below(90);
    for (std::uint64_t i = 0; i < n; ++i) {
        Access a;
        a.tid = tids[rng.below(threads)];
        a.site = sites[rng.below(cells)];
        a.write = rng.chance(1, 2);
        obs.accesses.push_back(a);
    }
    return obs;
}

TEST(FoataTest, OnePassLayeringMatchesPairwise)
{
    Rng rng(2012);
    for (int i = 0; i < 1000; ++i) {
        const rt::ScheduleObservation obs = sparseRun(rng);
        ASSERT_EQ(explore::canonicalSignature(obs), pairwiseSignature(obs))
            << "run " << i;
    }
}

TEST(FoataTest, HashIsFnv1aOfTheCanonicalText)
{
    Rng rng(2014);
    for (int i = 0; i < 1000; ++i) {
        const rt::ScheduleObservation obs = sparseRun(rng);
        ASSERT_EQ(explore::signatureHash(obs),
                  fnvHex(explore::canonicalSignature(obs)))
            << "run " << i;
    }
}

} // namespace
} // namespace portend

namespace portend::core {
namespace {

using ir::I;
using ir::R;

using tests::flipGadget;

/**
 * The classes each cluster's explorers realized in their seeded
 * opening phase (the paper's Ma samples), in cluster order, read off
 * the trace of a `--jobs 1` pipeline run: the `explore/record` spans
 * with fresh = 1 inside the first @p ma `explore/dpor-candidate`
 * spans of each primary path. Spans are listed by start time, so a
 * candidate precedes the record it contains.
 */
std::vector<std::uint64_t>
seededClasses(const std::string &trace_json, int ma)
{
    std::vector<std::uint64_t> per_cluster;
    std::istringstream is(trace_json);
    std::string line;
    const auto has = [&line](const char *text) {
        return line.find(text) != std::string::npos;
    };
    const auto arg = [&line](const std::string &key) {
        const std::size_t at = line.find("\"" + key + "\": ");
        EXPECT_NE(at, std::string::npos) << key << " in " << line;
        return at == std::string::npos
                   ? -1L
                   : std::stol(line.substr(at + key.size() + 4));
    };
    long path = -1;
    int issued = 0;
    while (std::getline(is, line)) {
        if (has("\"cat\": \"classify\", \"name\": \"classify-race\"")) {
            per_cluster.push_back(0);
            path = -1;
        } else if (has("\"cat\": \"explore\", \"name\": \"dpor-candidate\"")) {
            const long p = arg("path");
            if (p != path) {
                path = p;
                issued = 0;
            }
            issued += 1;
        } else if (has("\"cat\": \"explore\", \"name\": \"record\"")) {
            EXPECT_FALSE(per_cluster.empty());
            if (issued <= ma && arg("fresh") == 1 && !per_cluster.empty())
                per_cluster.back() += 1;
        }
    }
    return per_cluster;
}

/** Distinct post-race interleavings a batch witnessed: in all, and
 *  in the explorers' seeded opening phases. */
struct DistinctTotals
{
    std::uint64_t seeded = 0;
    std::uint64_t dpor = 0;
};

/**
 * Classify @p p at budget @p ma under a tracer, expect every cluster
 * to witness at least the classes its seeded samples realized and no
 * more than the schedules it ran, and the registry to hold the
 * per-cluster sums; return the two totals.
 */
DistinctTotals
measureExplorer(const ir::Program &p, int ma,
                const std::vector<SemanticPredicate> &predicates = {})
{
    PortendOptions o;
    o.jobs = 1;
    o.ma = ma;
    o.semantic_predicates = predicates;
    obs::Tracer tracer;
    obs::setTracer(&tracer);
    const PortendResult res = Portend(p, o).run();
    obs::setTracer(nullptr);
    EXPECT_EQ(tracer.dropped(), 0u);
    const std::vector<std::uint64_t> seeded =
        seededClasses(tracer.toJson(), ma);
    EXPECT_FALSE(res.reports.empty());
    EXPECT_EQ(seeded.size(), res.reports.size());

    DistinctTotals t;
    const std::size_t n = std::min(seeded.size(), res.reports.size());
    for (std::size_t i = 0; i < n; ++i) {
        const obs::MetricsShard &m = res.reports[i].classification.metrics;
        const std::uint64_t d =
            m.counter(obs::Counter::ClassifyDistinctSchedules);
        EXPECT_LE(d, m.counter(obs::Counter::ClassifySchedules))
            << "cluster " << i;
        EXPECT_GE(d, seeded[i]) << "cluster " << i;
        t.seeded += seeded[i];
        t.dpor += d;
    }
    EXPECT_EQ(res.metrics.counter(obs::Counter::ClassifyDistinctSchedules),
              t.dpor);
    return t;
}

// The explorer's budget claim: at Ma, its systematic phase buys
// distinct post-race interleavings beyond the classes its own Ma
// seeded samples realize — on every cluster at least as many,
// strictly more on a schedule-rich program, at least twice as many
// over three larger gadgets, and never fewer on the micro workloads,
// whose small post-race spaces the samples already saturate.
TEST(ExplorePipelineTest, DporBuysMoreDistinctSchedules)
{
    {
        SCOPED_TRACE("racy_staggered");
        const DistinctTotals t =
            measureExplorer(flipGadget("racy_staggered", 3, 3), 6);
        EXPECT_GT(t.dpor, t.seeded);
    }

    DistinctTotals gadgets;
    for (int g = 0; g < 3; ++g) {
        const int workers = 4 - g;
        const int stride = 6 + 2 * g;
        const std::string name = "flip-gadget-w" +
                                 std::to_string(workers) + "-s" +
                                 std::to_string(stride);
        SCOPED_TRACE(name);
        const DistinctTotals t =
            measureExplorer(flipGadget(name, workers, stride), 8);
        gadgets.seeded += t.seeded;
        gadgets.dpor += t.dpor;
    }
    EXPECT_GE(gadgets.dpor, 2 * gadgets.seeded)
        << "seeded " << gadgets.seeded << ", dpor " << gadgets.dpor;

    for (const char *name : {"avv", "dcl", "dbm", "rw", "bbuf"}) {
        SCOPED_TRACE(name);
        workloads::Workload w = workloads::buildWorkload(name);
        measureExplorer(w.program, 8, w.semantic_predicates);
    }
}

// Explorer evidence replays: a dpor-found decisive verdict carries
// a schedule prefix + signature, and replaying it deterministically
// reproduces the behavior class.
TEST(ExplorePipelineTest, GuidedEvidenceReplays)
{
    ir::Program p = flipGadget("racy_staggered", 3, 3);
    PortendOptions o;
    o.jobs = 1;
    o.ma = 6;
    Portend tool(p, o);
    PortendResult res = tool.run();

    RaceAnalyzer analyzer(p, o);
    int replayed = 0;
    for (const PortendReport &r : res.reports) {
        const Classification &c = r.classification;
        if (c.cls != RaceClass::SpecViolated &&
            c.cls != RaceClass::OutputDiffers) {
            continue;
        }
        RaceAnalyzer::EvidenceReplay er = analyzer.replayEvidence(
            r.cluster.representative, res.detection.trace, c);
        if (c.cls == RaceClass::SpecViolated)
            EXPECT_TRUE(rt::isSpecViolation(er.outcome));
        else
            EXPECT_EQ(er.outcome, rt::RunOutcome::Exited);
        replayed += 1;
    }
    // The program may classify fully harmless; then nothing to
    // replay — still assert the pipeline produced reports.
    EXPECT_FALSE(res.reports.empty());
    (void)replayed;
}

} // namespace
} // namespace portend::core
