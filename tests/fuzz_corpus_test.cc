/**
 * @file
 * On-disk corpus tests: save/load round-trip, replay semantics for
 * regression and disagreement entries, corruption handling, and the
 * end-to-end campaign pipeline (including an injected oracle bug
 * flowing through flag -> minimize -> persist).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "ir/serialize.h"
#include "support/observe.h"

namespace fs = std::filesystem;

namespace portend::fuzz {
namespace {

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("corpus_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Two corpus directories hold the same entries, byte for byte. */
void
expectSameCorpus(const std::string &d1, const std::string &d2)
{
    std::vector<std::string> n1 = listEntries(d1);
    std::vector<std::string> n2 = listEntries(d2);
    ASSERT_EQ(n1, n2);
    for (const std::string &name : n1) {
        for (const char *file :
             {"meta.txt", "program.pil", "trace.txt"}) {
            std::ifstream f1(fs::path(d1) / name / file);
            std::ifstream f2(fs::path(d2) / name / file);
            std::stringstream s1, s2;
            s1 << f1.rdbuf();
            s2 << f2.rdbuf();
            EXPECT_EQ(s1.str(), s2.str()) << name << "/" << file;
        }
    }
}

/** A real generated reproducer with its oracle snapshot. */
CorpusEntry
makeRegressionEntry(std::uint64_t index)
{
    GeneratedProgram g =
        generateProgram(42, index, GeneratorOptions{});
    OracleVerdict v = runOracle(g.program, OracleOptions{});
    CorpusEntry e;
    e.name = "sig-test-" + std::to_string(index);
    e.kind = "regression";
    e.fuzz_seed = 42;
    e.index = index;
    e.signature = v.signature();
    e.recipe_text = g.recipe.serialize();
    e.program_text = ir::serializeProgram(g.program);
    e.trace_text = v.trace_text;
    return e;
}

TEST(FuzzCorpus, SaveLoadRoundTrip)
{
    std::string dir = scratchDir("roundtrip");
    CorpusEntry e = makeRegressionEntry(0);
    e.witness = "cell:n=5";
    std::string error;
    ASSERT_TRUE(saveEntry(dir, e, &error)) << error;

    auto back = loadEntry((fs::path(dir) / e.name).string(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->kind, e.kind);
    EXPECT_EQ(back->fuzz_seed, e.fuzz_seed);
    EXPECT_EQ(back->index, e.index);
    EXPECT_EQ(back->signature, e.signature);
    EXPECT_EQ(back->witness, e.witness);
    EXPECT_EQ(back->recipe_text, e.recipe_text);
    EXPECT_EQ(back->program_text, e.program_text);
    EXPECT_EQ(back->trace_text, e.trace_text);
}

TEST(FuzzCorpus, RegressionEntryReplaysGreen)
{
    CorpusEntry e = makeRegressionEntry(1);
    ReplayOutcome out = replayEntry(e);
    EXPECT_TRUE(out.ok) << out.detail;
}

TEST(FuzzCorpus, ReplayDetectsSignatureDrift)
{
    CorpusEntry e = makeRegressionEntry(2);
    e.signature = "out=exited;races=999;classes=";
    ReplayOutcome out = replayEntry(e);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.detail.find("signature"), std::string::npos);
}

TEST(FuzzCorpus, ReplayRejectsCorruptProgramWithoutCrashing)
{
    CorpusEntry e = makeRegressionEntry(3);
    e.program_text =
        e.program_text.substr(0, e.program_text.size() / 2);
    ReplayOutcome out = replayEntry(e);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.detail.find("parse"), std::string::npos);

    e = makeRegressionEntry(3);
    e.trace_text = "trace v1\nd notanumber";
    out = replayEntry(e);
    EXPECT_FALSE(out.ok);
}

TEST(FuzzCorpus, DisagreementEntryIsGreenOnceFixed)
{
    // A disagreement reproducer replays green when the recorded
    // check no longer fails — i.e. after the bug it pinned is fixed.
    CorpusEntry e = makeRegressionEntry(4);
    e.kind = "disagreement";
    e.check = "determinism"; // passes on today's pipeline
    ReplayOutcome out = replayEntry(e);
    EXPECT_TRUE(out.ok) << out.detail;
}

TEST(FuzzCorpus, RunCorpusAggregatesAndSorts)
{
    std::string dir = scratchDir("aggregate");
    std::string error;
    ASSERT_TRUE(saveEntry(dir, makeRegressionEntry(5), &error));
    ASSERT_TRUE(saveEntry(dir, makeRegressionEntry(6), &error));

    CorpusRunResult res = runCorpus(dir);
    EXPECT_EQ(res.total, 2);
    EXPECT_EQ(res.passed, 2);
    EXPECT_TRUE(res.allGreen());
    ASSERT_EQ(res.outcomes.size(), 2u);
    EXPECT_LT(res.outcomes[0].name, res.outcomes[1].name);
}

TEST(FuzzCorpus, RunCorpusReportsBrokenEntryDirectories)
{
    std::string dir = scratchDir("broken");
    fs::create_directories(fs::path(dir) / "half-entry");
    {
        std::ofstream os(fs::path(dir) / "half-entry" / "meta.txt");
        os << "kind=regression\n";
    } // program.pil and trace.txt missing
    CorpusRunResult res = runCorpus(dir);
    EXPECT_EQ(res.total, 1);
    EXPECT_EQ(res.passed, 0);
}

TEST(FuzzCorpus, MetaNumbersAreDigitsThatFit)
{
    std::string dir = scratchDir("meta_numbers");
    CorpusEntry e;
    e.name = "sig-meta";
    e.kind = "regression";
    e.fuzz_seed = 42;
    e.index = 7;
    std::string error;
    ASSERT_TRUE(saveEntry(dir, e, &error)) << error;
    const fs::path entry = fs::path(dir) / e.name;
    std::string text;
    {
        std::ifstream is(entry / "meta.txt");
        text.assign(std::istreambuf_iterator<char>(is), {});
    }
    const auto loadWith = [&](const std::string &from,
                              const std::string &to) {
        std::string edited = text;
        const std::size_t at = edited.find("\n" + from + "\n");
        EXPECT_NE(at, std::string::npos) << from;
        if (at != std::string::npos)
            edited.replace(at + 1, from.size(), to);
        std::ofstream(entry / "meta.txt", std::ios::trunc) << edited;
        return loadEntry(entry.string(), &error);
    };
    for (const std::string from : {"fuzz_seed=42", "index=7"}) {
        const std::string key = from.substr(0, from.find('='));
        for (const char *bad : {"1junk", " 1", "-1", "+1", "",
                                "18446744073709551616"}) {
            EXPECT_FALSE(loadWith(from, key + "=" + bad).has_value())
                << key << "=" << bad;
            EXPECT_NE(error.find("bad number for " + key),
                      std::string::npos)
                << error;
        }
    }
    // The largest value that fits still loads.
    std::optional<CorpusEntry> max =
        loadWith("index=7", "index=18446744073709551615");
    ASSERT_TRUE(max.has_value()) << error;
    EXPECT_EQ(max->index, UINT64_MAX);
    // The retired `detection_seed=` and `explore=` lines of older
    // entries are ignored, whatever they hold.
    std::optional<CorpusEntry> old = loadWith(
        "index=7", "index=7\ndetection_seed=3\nexplore=random");
    ASSERT_TRUE(old.has_value()) << error;
    EXPECT_EQ(old->index, 7u);
}

TEST(FuzzCorpus, CampaignWritesReplayableCorpus)
{
    std::string dir = scratchDir("campaign");
    FuzzOptions opts;
    opts.budget = 24;
    opts.fuzz_seed = 42;
    opts.jobs = 2;
    opts.corpus_dir = dir;
    FuzzResult res = runFuzz(opts);
    EXPECT_TRUE(res.clean());
    EXPECT_EQ(res.programs, 24);
    EXPECT_GT(res.regression_entries, 0);

    CorpusRunResult replay = runCorpus(dir);
    EXPECT_EQ(replay.total, res.regression_entries);
    EXPECT_TRUE(replay.allGreen());
}

TEST(FuzzCorpus, CampaignIsDeterministicAcrossJobsAndRuns)
{
    std::string d1 = scratchDir("det1");
    std::string d2 = scratchDir("det2");
    FuzzOptions opts;
    opts.budget = 16;
    opts.fuzz_seed = 9;

    opts.jobs = 1;
    opts.corpus_dir = d1;
    FuzzResult a = runFuzz(opts);
    opts.jobs = 3;
    opts.corpus_dir = d2;
    FuzzResult b = runFuzz(opts);

    // Summary bytes are identical modulo the corpus path line.
    a.corpus_dir = b.corpus_dir = "";
    EXPECT_EQ(a.summaryText(), b.summaryText());
    expectSameCorpus(d1, d2);
}

TEST(FuzzCorpus, TimeBoxedRunEqualsBudgetRunAtItsProgramCount)
{
    // A time-boxed run folds, minimizes and drops one batch at a
    // time; its summary and corpus must be those of --budget at the
    // program count the box reached.
    std::string d1 = scratchDir("boxed");
    std::string d2 = scratchDir("budgeted");
    FuzzOptions opts;
    opts.fuzz_seed = 7;
    opts.jobs = 2;
    opts.seconds = 0.3;
    opts.corpus_dir = d1;
    FuzzResult boxed = runFuzz(opts);
    ASSERT_GT(boxed.programs, 0);
    EXPECT_EQ(boxed.programs % (kBatchPerJob * 2), 0)
        << "kBatchPerJob x jobs programs per batch";

    opts.seconds = 0.0;
    opts.budget = boxed.programs;
    opts.corpus_dir = d2;
    FuzzResult budgeted = runFuzz(opts);
    boxed.corpus_dir = budgeted.corpus_dir = "";
    EXPECT_EQ(boxed.summaryText(), budgeted.summaryText());
    expectSameCorpus(d1, d2);
}

TEST(FuzzCorpus, BudgetRunFoldsEachBatchBeforeItJudgesTheNext)
{
    // --budget holds one batch at a time, as --seconds does: at
    // --jobs 1 the judge of index i runs once the kBatchPerJob x
    // (i / kBatchPerJob) programs of the earlier batches are folded,
    // which is when fuzz.programs counts them.
    obs::Collector collector;
    obs::setCollector(&collector);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> folded_at;
    FuzzOptions opts;
    opts.budget = 40;
    opts.fuzz_seed = 42;
    opts.jobs = 1;
    opts.judge = [&](const ir::Program &prog, const OracleOptions &o) {
        obs::MetricsShard m;
        collector.drainInto(m);
        const std::string index =
            prog.name.substr(prog.name.rfind("_i") + 2);
        folded_at.emplace_back(std::stoull(index),
                               m.counter(obs::Counter::FuzzPrograms));
        return runOracle(prog, o);
    };
    const FuzzResult res = runFuzz(opts);
    obs::setCollector(nullptr);

    EXPECT_EQ(res.programs, 40);
    ASSERT_EQ(folded_at.size(), 40u);
    for (std::size_t i = 0; i < folded_at.size(); ++i) {
        const auto [index, programs] = folded_at[i];
        EXPECT_EQ(index, i);
        EXPECT_EQ(programs, kBatchPerJob * (index / kBatchPerJob))
            << "index " << index;
    }
}

TEST(FuzzCorpus, ExemplarCapCountsTheSignaturesItDrops)
{
    // Seed 42's 200 clean programs show 44 distinct signatures; the
    // first 16 are kept and the other 28 are counted, not hidden.
    std::string dir = scratchDir("cap");
    FuzzOptions opts;
    opts.budget = 200;
    opts.fuzz_seed = 42;
    opts.jobs = 2;
    opts.corpus_dir = dir;
    FuzzResult res = runFuzz(opts);
    EXPECT_EQ(res.regression_entries, kMaxNewEntries);
    EXPECT_EQ(res.signatures_over_cap, 28);
    EXPECT_NE(res.summaryText().find(
                  "  corpus: 16 regression + 0 disagreement entr(ies) in " +
                  dir + "; 28 novel signature(s) past the cap of 16 not "
                        "kept\n"),
              std::string::npos)
        << res.summaryText();

    // Without a corpus nothing is minimized, so nothing is capped.
    opts.corpus_dir = "";
    EXPECT_EQ(runFuzz(opts).signatures_over_cap, 0);
}

TEST(FuzzCorpus, InjectedOracleBugFlowsToMinimizedDisagreement)
{
    // End-to-end: a judge that falsely "fails" any program containing
    // an overflow-crash pattern must produce minimized findings and
    // disagreement entries on disk.
    std::string dir = scratchDir("injected");
    FuzzOptions opts;
    opts.budget = 12;
    opts.fuzz_seed = 42;
    opts.corpus_dir = dir;
    opts.judge = [](const ir::Program &prog,
                    const OracleOptions &) {
        OracleVerdict v;
        v.outcome = "exited";
        bool guilty = false;
        for (const auto &g : prog.globals)
            guilty = guilty ||
                     g.name.find("_table") != std::string::npos;
        v.checks.push_back({"injected-check", !guilty,
                            guilty ? "program has an overflow table"
                                   : ""});
        return v;
    };
    FuzzResult res = runFuzz(opts);
    ASSERT_GT(res.findings.size(), 0u);
    EXPECT_GT(res.disagreement_entries, 0);
    for (const FuzzFinding &f : res.findings) {
        EXPECT_EQ(f.check, "injected-check");
        // Minimized to the single guilty pattern.
        ASSERT_EQ(f.minimized.patterns.size(), 1u);
        EXPECT_EQ(f.minimized.patterns[0].kind,
                  PatternKind::OverflowCrash);
        EXPECT_FALSE(f.entry_name.empty());
        EXPECT_TRUE(
            fs::exists(fs::path(dir) / f.entry_name / "program.pil"));
    }
}

TEST(FuzzCorpus, DeepOnlyFindingsShrinkUnderDeepProbes)
{
    // A judge that fails one check of the real oracle on every
    // program that runs it. Only a deep run runs a deep-only check,
    // so its minimization probes must be deep: a shallow probe never
    // sees the check fail and hands the recipe back unshrunk.
    for (const char *forced : {"determinism", "ma-monotonicity"}) {
        FuzzOptions opts;
        opts.budget = 1;
        opts.fuzz_seed = 42;
        opts.judge = [forced](const ir::Program &prog,
                              const OracleOptions &o) {
            OracleVerdict v = runOracle(prog, o);
            for (CheckResult &c : v.checks) {
                if (c.name == forced) {
                    c.ok = false;
                    c.detail = "forced";
                }
            }
            return v;
        };
        FuzzResult res = runFuzz(opts);
        ASSERT_EQ(res.findings.size(), 1u) << forced;
        EXPECT_EQ(res.findings[0].check, forced);
        EXPECT_EQ(res.findings[0].minimized.serialize(),
                  "recipe v1 fuzz_s42_i0 2")
            << forced;
    }
}

} // namespace
} // namespace portend::fuzz
