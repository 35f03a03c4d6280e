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

/** Drive a pure-systematic (no random phase) dpor exploration of
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
    xo.mode = explore::ExploreMode::Dpor;
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

// Random mode is a pure sampler: exactly `budget` seeded runs, with
// the legacy seed layout, and no systematic candidates.
TEST(ExplorerModeTest, RandomModeIssuesExactlyBudgetSeeds)
{
    explore::ExplorerOptions xo;
    xo.mode = explore::ExploreMode::Random;
    xo.budget = 3;
    xo.seed_base = 16;
    explore::ScheduleExplorer ex(xo);
    for (int j = 1; j <= 3; ++j) {
        std::optional<explore::PostSpec> s = ex.next();
        ASSERT_TRUE(s.has_value());
        EXPECT_EQ(s->kind, explore::PostSpec::Kind::Random);
        EXPECT_EQ(s->seed, 16u + static_cast<std::uint64_t>(j));
        rt::ScheduleObservation obs;
        obs.accesses = {{j, 1, true, 0}}; // all distinct classes
        EXPECT_TRUE(ex.record(obs));
    }
    EXPECT_FALSE(ex.next().has_value());
    EXPECT_EQ(ex.distinct(), 3);
}

// The dpor superset contract: the random phase comes first, with
// the same seeds random mode would use, and stopping conditions do
// not truncate it.
TEST(ExplorerModeTest, DporRunsTheRandomPhaseFirstAndWhole)
{
    explore::ExplorerOptions xo;
    xo.mode = explore::ExploreMode::Dpor;
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
    // second random seed must still be issued before stopping.
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
    xo.mode = explore::ExploreMode::Random;
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
 * A Dpor-mode explorer that expands every run inside record(), over
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
                    xo.mode = explore::ExploreMode::Dpor;
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

PortendResult
runExplorer(const ir::Program &p, explore::ExploreMode mode, int ma,
            const std::vector<SemanticPredicate> &predicates = {})
{
    PortendOptions o;
    o.jobs = 1;
    o.ma = ma;
    o.explore = mode;
    o.semantic_predicates = predicates;
    Portend tool(p, o);
    return tool.run();
}

/** Distinct post-race interleavings a batch witnessed, per explorer. */
struct DistinctTotals
{
    std::uint64_t random = 0;
    std::uint64_t dpor = 0;
};

/**
 * Classify @p p under random and under dpor at budget @p ma, expect
 * dpor to witness at least as many distinct interleavings as random
 * on every cluster and the registry to hold the per-cluster sums,
 * and return the two totals.
 */
DistinctTotals
compareExplorers(const ir::Program &p, int ma,
                 const std::vector<SemanticPredicate> &predicates = {})
{
    PortendResult rnd =
        runExplorer(p, explore::ExploreMode::Random, ma, predicates);
    PortendResult dpo =
        runExplorer(p, explore::ExploreMode::Dpor, ma, predicates);
    EXPECT_EQ(rnd.reports.size(), dpo.reports.size());
    EXPECT_FALSE(rnd.reports.empty());

    DistinctTotals t;
    const std::size_t n = std::min(rnd.reports.size(), dpo.reports.size());
    for (std::size_t i = 0; i < n; ++i) {
        const obs::MetricsShard &a = rnd.reports[i].classification.metrics;
        const obs::MetricsShard &b = dpo.reports[i].classification.metrics;
        const auto distinct = obs::Counter::ClassifyDistinctSchedules;
        const auto schedules = obs::Counter::ClassifySchedules;
        EXPECT_LE(a.counter(distinct), a.counter(schedules));
        EXPECT_LE(b.counter(distinct), b.counter(schedules));
        EXPECT_GE(b.counter(distinct), a.counter(distinct))
            << "cluster " << i;
        t.random += a.counter(distinct);
        t.dpor += b.counter(distinct);
    }
    const auto distinct = [](const PortendResult &res) {
        return res.metrics.counter(obs::Counter::ClassifyDistinctSchedules);
    };
    EXPECT_EQ(distinct(rnd), t.random);
    EXPECT_EQ(distinct(dpo), t.dpor);
    return t;
}

// The explorer's budget claim: at equal Ma, dpor witnesses at least
// as many distinct post-race interleavings as random on every
// cluster, strictly more on a schedule-rich program, at least twice
// as many over three larger gadgets, and never fewer on the micro
// workloads, whose small post-race spaces both explorers saturate.
TEST(ExplorePipelineTest, DporBuysMoreDistinctSchedules)
{
    {
        SCOPED_TRACE("racy_staggered");
        const DistinctTotals t =
            compareExplorers(flipGadget("racy_staggered", 3, 3), 6);
        EXPECT_GT(t.dpor, t.random);
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
            compareExplorers(flipGadget(name, workers, stride), 8);
        gadgets.random += t.random;
        gadgets.dpor += t.dpor;
    }
    EXPECT_GE(gadgets.dpor, 2 * gadgets.random)
        << "random " << gadgets.random << ", dpor " << gadgets.dpor;

    for (const char *name : {"avv", "dcl", "dbm", "rw", "bbuf"}) {
        SCOPED_TRACE(name);
        workloads::Workload w = workloads::buildWorkload(name);
        compareExplorers(w.program, 8, w.semantic_predicates);
    }
}

// Verdict monotonicity, random -> dpor: dpor runs the random phase
// first, so a decisive random verdict is reproduced identically and
// a k-witness verdict may only upgrade toward a decisive class.
TEST(ExplorePipelineTest, DporNeverLosesDecisiveVerdicts)
{
    for (const std::string &name :
         {std::string("pbzip2"), std::string("bbuf"),
          std::string("ctrace")}) {
        workloads::Workload w = workloads::buildWorkload(name);
        PortendOptions o;
        o.jobs = 1;
        o.semantic_predicates = w.semantic_predicates;
        o.explore = explore::ExploreMode::Random;
        PortendResult rnd = Portend(w.program, o).run();
        o.explore = explore::ExploreMode::Dpor;
        PortendResult dpo = Portend(w.program, o).run();

        ASSERT_EQ(rnd.reports.size(), dpo.reports.size()) << name;
        for (std::size_t i = 0; i < rnd.reports.size(); ++i) {
            const Classification &a = rnd.reports[i].classification;
            const Classification &b = dpo.reports[i].classification;
            if (a.cls == RaceClass::SpecViolated) {
                EXPECT_EQ(b.cls, RaceClass::SpecViolated)
                    << name << " cluster " << i;
                EXPECT_EQ(b.viol, a.viol) << name << " cluster " << i;
            }
            if (a.cls == RaceClass::OutputDiffers) {
                EXPECT_TRUE(b.cls == RaceClass::OutputDiffers ||
                            b.cls == RaceClass::SpecViolated)
                    << name << " cluster " << i;
            }
            // Single-ordering and unclassified verdicts come from
            // stage 1 and never depend on the explorer.
            if (a.cls == RaceClass::SingleOrdering) {
                EXPECT_EQ(b.cls, a.cls) << name << " cluster " << i;
            }
        }
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
    o.explore = explore::ExploreMode::Dpor;
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
