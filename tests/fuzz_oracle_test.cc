/**
 * @file
 * Differential-oracle tests: the full check battery is clean on
 * generated programs and on the paper workloads, signatures are
 * stable, and every advertised check actually runs.
 */

#include <gtest/gtest.h>

#include <set>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "portend/portend.h"
#include "race/hb.h"
#include "race/lockset.h"
#include "workloads/registry.h"

namespace portend::fuzz {
namespace {

TEST(FuzzOracle, CleanOnGeneratedPrograms)
{
    GeneratorOptions gopts;
    OracleOptions oopts;
    for (std::uint64_t i = 0; i < 16; ++i) {
        GeneratedProgram g = generateProgram(42, i, gopts);
        ASSERT_TRUE(g.verify_errors.empty());
        oopts.deep = i % 4 == 0;
        OracleVerdict v = runOracle(g.program, oopts);
        EXPECT_FALSE(v.flagged())
            << "index " << i << ": check '" << v.firstFailure()
            << "' failed";
    }
}

TEST(FuzzOracle, CleanOnPaperMicrobenchmarks)
{
    OracleOptions opts;
    opts.deep = true;
    for (const char *name : {"avv", "dcl", "dbm", "rw", "bbuf"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        OracleVerdict v = runOracle(w.program, opts);
        EXPECT_FALSE(v.flagged())
            << name << ": check '" << v.firstFailure() << "' failed";
        EXPECT_GT(v.distinct_races, 0) << name;
    }
}

TEST(FuzzOracle, DeepBatteryRunsAllChecks)
{
    GeneratedProgram g = generateProgram(42, 0, GeneratorOptions{});
    OracleOptions opts;
    opts.deep = true;
    OracleVerdict v = runOracle(g.program, opts);

    std::set<std::string> names;
    for (const CheckResult &c : v.checks)
        names.insert(c.name);
    for (const char *want :
         {"verify", "roundtrip", "hb-subset-nomutex",
          "hb-subset-lockset", "determinism", "jobs-invariance",
          "ma-monotonicity"}) {
        EXPECT_TRUE(names.count(want)) << "check missing: " << want;
    }
    // Retired with the random explorer it cross-checked.
    EXPECT_FALSE(names.count("explore-monotonicity"));
}

// The symbolic run and its witness-replay check run exactly when the
// program declares inputs, and on the input-sensitive extension
// workloads they must be clean and record a solver-concretized
// witness for the upgraded verdict.
TEST(FuzzOracle, SymbolicBatteryCleanOnExtensionWorkloads)
{
    OracleOptions opts;
    opts.deep = true;
    for (const char *name : {"ibuf", "iguard"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        ASSERT_FALSE(w.program.inputs.empty());
        OracleVerdict v = runOracle(w.program, opts);
        EXPECT_FALSE(v.flagged())
            << name << ": check '" << v.firstFailure() << "' failed";
        std::set<std::string> names;
        for (const CheckResult &c : v.checks)
            names.insert(c.name);
        EXPECT_TRUE(names.count("witness-replay")) << name;
        EXPECT_NE(v.witness_text.find(":n="), std::string::npos)
            << name << ": witness_text = '" << v.witness_text << "'";
    }
}

TEST(FuzzOracle, SymbolicBatterySkippedWithoutInputDecls)
{
    workloads::Workload w = workloads::buildWorkload("avv");
    ASSERT_TRUE(w.program.inputs.empty());
    OracleOptions opts;
    opts.deep = true;
    OracleVerdict v = runOracle(w.program, opts);
    for (const CheckResult &c : v.checks)
        EXPECT_NE(c.name, "witness-replay");
    EXPECT_TRUE(v.witness_text.empty());
}

// The schedule-coverage monotonicity property: across a generated
// batch, doubling Ma never loses a "spec violated" verdict.
TEST(FuzzOracle, ScheduleCoverageMonotonicityHolds)
{
    GeneratorOptions gopts;
    OracleOptions oopts;
    oopts.deep = true;
    for (std::uint64_t i = 0; i < 6; ++i) {
        GeneratedProgram g = generateProgram(1337, i, gopts);
        ASSERT_TRUE(g.verify_errors.empty());
        OracleVerdict v = runOracle(g.program, oopts);
        for (const CheckResult &c : v.checks) {
            if (c.name == "ma-monotonicity") {
                EXPECT_TRUE(c.ok)
                    << "index " << i << ": " << c.name << ": " << c.detail;
            }
        }
    }
}

// The monotonicity property also holds on the paper workloads —
// including the ones whose stage 3 actually decides the verdict.
TEST(FuzzOracle, ScheduleCoverageMonotonicityOnWorkloads)
{
    OracleOptions opts;
    opts.deep = true;
    for (const char *name : {"pbzip2", "bbuf", "avv"}) {
        workloads::Workload w = workloads::buildWorkload(name);
        OracleVerdict v = runOracle(w.program, opts);
        for (const CheckResult &c : v.checks) {
            if (c.name == "ma-monotonicity") {
                EXPECT_TRUE(c.ok)
                    << name << ": " << c.name << ": " << c.detail;
            }
        }
    }
}

/** Names of the checks @p v ran. */
std::set<std::string>
checkNames(const OracleVerdict &v)
{
    std::set<std::string> names;
    for (const CheckResult &c : v.checks)
        names.insert(c.name);
    return names;
}

// A shallow run skips exactly the metamorphic re-runs, and
// isDeepCheck is that rule: a check is deep exactly when a shallow
// run of the same program never runs it. ibuf declares inputs, so
// its deep run runs all four deep checks.
TEST(FuzzOracle, ShallowBatterySkipsMetamorphicReruns)
{
    std::vector<ir::Program> progs;
    progs.push_back(workloads::buildWorkload("ibuf").program);
    progs.push_back(workloads::buildWorkload("avv").program);
    for (std::uint64_t i = 0; i < 4; ++i)
        progs.push_back(
            generateProgram(42, i, GeneratorOptions{}).program);
    int deep_checks = 0;
    for (std::size_t i = 0; i < progs.size(); ++i) {
        OracleOptions opts;
        const std::set<std::string> deep =
            checkNames(runOracle(progs[i], opts));
        opts.deep = false;
        const std::set<std::string> shallow =
            checkNames(runOracle(progs[i], opts));
        for (const std::string &name : shallow)
            EXPECT_TRUE(deep.count(name)) << i << ": " << name;
        for (const std::string &name : deep) {
            EXPECT_EQ(isDeepCheck(name), !shallow.count(name))
                << i << ": " << name;
            deep_checks += i == 0 && isDeepCheck(name);
        }
    }
    EXPECT_EQ(deep_checks, 4);
}

/** Clusters as text: identity, count and both accesses. */
std::string
clusterText(const ir::Program &prog,
            const std::vector<race::RaceCluster> &clusters)
{
    std::string out;
    for (const race::RaceCluster &c : clusters) {
        out += c.representative.key() + " x" +
               std::to_string(c.instances) + " steps " +
               std::to_string(c.representative.first.step) + "," +
               std::to_string(c.representative.second.step) + "\n" +
               c.representative.describe(prog);
    }
    return out;
}

/**
 * The oracle's mutex-blind and lockset detectors observe the primary
 * detection run instead of recording their own. Each reports the
 * clusters a separate detection under it reports, and the primary
 * run's trace, clusters and metrics do not move with them attached.
 */
void
expectObserversMatchSeparateRuns(const ir::Program &prog,
                                 const core::PortendOptions &o,
                                 const std::string &what)
{
    race::HbDetector nomutex(prog, race::HbOptions{true});
    race::LocksetDetector lockset(prog);
    const core::DetectionResult with =
        core::Portend(prog, o).detect({&nomutex, &lockset});
    const core::DetectionResult alone = core::Portend(prog, o).detect();
    EXPECT_EQ(with.trace.serialize(), alone.trace.serialize()) << what;
    EXPECT_EQ(clusterText(prog, with.clusters),
              clusterText(prog, alone.clusters))
        << what;
    EXPECT_EQ(obs::metricsJson(with.metrics),
              obs::metricsJson(alone.metrics))
        << what;

    const std::pair<core::DetectorKind, const std::vector<race::RaceReport> *>
        observed[] = {
            {core::DetectorKind::HappensBeforeNoMutex, &nomutex.races()},
            {core::DetectorKind::Lockset, &lockset.races()}};
    for (const auto &[kind, races] : observed) {
        core::PortendOptions so = o;
        so.detector = kind;
        const core::DetectionResult separate =
            core::Portend(prog, so).detect();
        EXPECT_EQ(clusterText(prog, race::clusterRaces(*races)),
                  clusterText(prog, separate.clusters))
            << what << " under " << core::detectorName(kind);
    }
}

TEST(DetectionObservers, MatchSeparateRunsOnTheRegistry)
{
    for (const std::string &name : workloads::workloadNames()) {
        const workloads::Workload w = workloads::buildWorkload(name);
        expectObserversMatchSeparateRuns(w.program, core::PortendOptions{},
                                         name);
    }
}

TEST(DetectionObservers, MatchSeparateRunsOnFuzzSeed42)
{
    core::PortendOptions o;
    o.max_steps = kOracleMaxSteps;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const GeneratedProgram g =
            generateProgram(42, i, GeneratorOptions{});
        ASSERT_TRUE(g.verify_errors.empty()) << i;
        expectObserversMatchSeparateRuns(g.program, o,
                                         "program " + std::to_string(i));
    }
}

TEST(FuzzOracle, SignatureIsStableAcrossRuns)
{
    GeneratedProgram g = generateProgram(7, 3, GeneratorOptions{});
    OracleOptions opts;
    OracleVerdict a = runOracle(g.program, opts);
    OracleVerdict b = runOracle(g.program, opts);
    EXPECT_EQ(a.signature(), b.signature());
    EXPECT_EQ(a.trace_text, b.trace_text);
    EXPECT_EQ(a.report_text, b.report_text);
}

TEST(FuzzOracle, FlagsStructurallyInvalidPrograms)
{
    ir::Program p; // no functions at all
    OracleVerdict v = runOracle(p, OracleOptions{});
    EXPECT_TRUE(v.flagged());
    EXPECT_EQ(v.firstFailure(), "verify");
}

} // namespace
} // namespace portend::fuzz
