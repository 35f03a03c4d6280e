/**
 * @file
 * Campaign engine tests: cache-key stability (the signature is a
 * pure function of program + trace + analysis config, never of
 * worker count or run count), change detection (every verdict-
 * relevant dial moves the signature), cache/journal persistence
 * round-trips with torn-write tolerance, and the headline resume
 * property — a campaign killed after N units and resumed merges to
 * bytes identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "campaign/cache.h"
#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "campaign/signature.h"
#include "support/subproc.h"
#include "fuzz/fuzzer.h"
#include "fuzz/oracle.h"
#include "portend/portend.h"
#include "rt/decode.h"
#include "workloads/registry.h"

namespace fs = std::filesystem;

namespace portend::campaign {
namespace {

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("campaign_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Detection run of one registry workload (trace source for keys). */
replay::ScheduleTrace
detectTrace(const std::string &workload, std::uint64_t seed = 1)
{
    workloads::Workload w = workloads::buildWorkload(workload);
    core::PortendOptions opts;
    opts.detection_seed = seed;
    opts.semantic_predicates = w.semantic_predicates;
    core::Portend tool(w.program, opts);
    return tool.detect().trace;
}

/** A small 3-unit manifest that keeps engine tests fast. */
CampaignConfig
microConfig(bool json = true)
{
    CampaignConfig config;
    config.render.json = json;
    config.units = {{"workload", "avv"},
                    {"workload", "dcl"},
                    {"workload", "dbm"}};
    return config;
}

// -- Signature stability ---------------------------------------------

TEST(SignatureTest, StableAcrossRepeatsAndRuntimeDials)
{
    core::PortendOptions opts;
    const std::uint64_t h1 = configHash(opts, "salt");
    const std::uint64_t h2 = configHash(opts, "salt");
    EXPECT_EQ(h1, h2);

    // `jobs` is a throughput dial: verdicts are byte-identical for
    // every worker count (the PR 2 contract), so the key must not
    // move with it.
    core::PortendOptions j4 = opts;
    j4.jobs = 4;
    EXPECT_EQ(configHash(j4, "salt"), h1);
    j4.jobs = 0;
    EXPECT_EQ(configHash(j4, "salt"), h1);
}

TEST(SignatureTest, TraceHashIsStableAndScheduleSensitive)
{
    const replay::ScheduleTrace t1 = detectTrace("avv", 1);
    const replay::ScheduleTrace t2 = detectTrace("avv", 1);
    EXPECT_EQ(traceHash(t1), traceHash(t2));

    // A different recorded schedule must move the key, because
    // classification consumes the trace verbatim. (A tiny workload's
    // schedule can be seed-insensitive, so compare across programs —
    // the guaranteed way to get a different recording.)
    const replay::ScheduleTrace t3 = detectTrace("dcl", 1);
    EXPECT_NE(traceHash(t1), traceHash(t3));
}

TEST(SignatureTest, ProgramEditMovesTheFingerprint)
{
    workloads::Workload a = workloads::buildWorkload("avv");
    workloads::Workload b = workloads::buildWorkload("dcl");
    EXPECT_NE(rt::programFingerprint(a.program),
              rt::programFingerprint(b.program));
}

TEST(SignatureTest, EveryAnalysisDialMovesTheKey)
{
    core::PortendOptions base;
    const std::uint64_t h = configHash(base);

    core::PortendOptions ma = base;
    ma.ma = base.ma + 3;
    EXPECT_NE(configHash(ma), h);

    core::PortendOptions mp = base;
    mp.mp = base.mp + 1;
    EXPECT_NE(configHash(mp), h);

    core::PortendOptions expl = base;
    expl.explore = explore::ExploreMode::Random;
    EXPECT_NE(configHash(expl), h);

    core::PortendOptions det = base;
    det.detector = core::DetectorKind::Lockset;
    EXPECT_NE(configHash(det), h);

    core::PortendOptions seed = base;
    seed.detection_seed = 123;
    EXPECT_NE(configHash(seed), h);

    core::PortendOptions sym = base;
    sym.sym_inputs.push_back({"x", true, 0, 7});
    EXPECT_NE(configHash(sym), h);

    // The same named input with a different range is a different
    // stage-2 search space.
    core::PortendOptions sym2 = base;
    sym2.sym_inputs.push_back({"x", true, 0, 8});
    EXPECT_NE(configHash(sym2), configHash(sym));

    core::PortendOptions budget = base;
    budget.max_steps = 5000;
    EXPECT_NE(configHash(budget), h);

    // The salt carries per-unit state (unit name, render mode).
    EXPECT_NE(configHash(base, "unit=workload:avv"),
              configHash(base, "unit=workload:dcl"));
}

// -- Format pins -----------------------------------------------------
//
// Literal manifest bytes, config hashes and a fuzz cache entry name.
// Campaign directories written by earlier builds must keep
// reopening, so none of these may move when the option structs are
// refactored.

TEST(FormatPinTest, DefaultRegistryManifestText)
{
    CampaignConfig config;
    config.units = registryUnits();
    EXPECT_EQ(manifestText(config),
              "portend-campaign-v1\n"
              "render.json 0\n"
              "render.stats 0\n"
              "render.classify 0\n"
              "mp 5\n"
              "ma 2\n"
              "adhoc 1\n"
              "multi_path 1\n"
              "multi_schedule 1\n"
              "max_symbolic_inputs 2\n"
              "timeout_factor 5\n"
              "max_steps 2000000\n"
              "detection_seed 1\n"
              "detector hb\n"
              "explore dpor\n"
              "preemption_bound 4\n"
              "solver.max_assignments 200000\n"
              "solver.max_candidates 128\n"
              "executor_max_states 512\n"
              "total_state_budget 0\n"
              "total_step_budget 0\n"
              "unit workload sqlite\n"
              "unit workload ocean\n"
              "unit workload fmm\n"
              "unit workload memcached\n"
              "unit workload pbzip2\n"
              "unit workload ctrace\n"
              "unit workload bbuf\n"
              "unit workload avv\n"
              "unit workload dcl\n"
              "unit workload dbm\n"
              "unit workload rw\n");
}

TEST(FormatPinTest, DefaultConfigHashes)
{
    const core::PortendOptions opts;
    EXPECT_EQ(hex16(configHash(opts)), "f591666096db4d19");
    EXPECT_EQ(hex16(configHash(opts, "unit=workload:avv;render=j-c;-")),
              "5944cef3ce0cd508");
}

TEST(FormatPinTest, FuzzCampaignCacheEntryName)
{
    // What `portend fuzz --fuzz-seed 42 --budget 1 --campaign <dir>`
    // stores (the worker count is not part of the signature).
    const std::string dir = scratchDir("fuzz_pin");
    fuzz::FuzzOptions opts;
    opts.budget = 1;
    opts.fuzz_seed = 42;
    opts.jobs = 1;
    opts.campaign_dir = dir;
    fuzz::runFuzz(opts);
    std::vector<std::string> names;
    for (const fs::directory_entry &e :
         fs::directory_iterator(dir + "/cache"))
        names.push_back(e.path().filename().string());
    EXPECT_EQ(names,
              std::vector<std::string>{"e670e03422df9efa.entry"});
}

TEST(FormatPinTest, RetiredDialsParseOnlyAtTheirFixedValues)
{
    CampaignConfig config;
    config.units = {{"workload", "avv"}};
    const std::string text = manifestText(config);
    for (const char *line :
         {"max_symbolic_inputs 2\n", "timeout_factor 5\n",
          "preemption_bound 4\n", "solver.max_assignments 200000\n",
          "solver.max_candidates 128\n", "total_state_budget 0\n",
          "total_step_budget 0\n"})
        EXPECT_NE(text.find(line), std::string::npos) << line;
    std::string error;
    ASSERT_TRUE(parseManifest(text, &error).has_value()) << error;

    const std::pair<std::string, std::string> edits[] = {
        {"timeout_factor 5", "timeout_factor 7"},
        {"total_step_budget 0", "total_step_budget 5000"},
    };
    for (const auto &[from, to] : edits) {
        std::string edited = text;
        edited.replace(edited.find(from + "\n"), from.size(), to);
        EXPECT_FALSE(parseManifest(edited, &error).has_value()) << to;
        EXPECT_EQ(error, "manifest: bad line: " + to);
    }
}

TEST(FormatPinTest, ManifestLinesRefuseTrailingTokens)
{
    // Every line kind manifestText writes parses back to itself.
    CampaignConfig config = microConfig();
    config.render.stats = true;
    config.render.only_class = core::RaceClass::OutputDiffers;
    config.analysis.explore = explore::ExploreMode::Random;
    config.analysis.detector = core::DetectorKind::Lockset;
    config.analysis.sym_inputs.push_back({"flag", true, 0, 1});
    config.analysis.sym_inputs.push_back({"a name", false, 0, 0});
    config.units.push_back({"file", "dir with space/p.pil"});
    std::string error;
    for (const CampaignConfig &c : {microConfig(), config}) {
        const std::string text = manifestText(c);
        std::optional<CampaignConfig> back = parseManifest(text, &error);
        ASSERT_TRUE(back.has_value()) << error;
        EXPECT_EQ(manifestText(*back), text);
    }

    // A value followed by anything else is a bad line, not a value.
    const std::string text = manifestText(microConfig());
    const std::pair<std::string, std::string> edits[] = {
        {"mp 5", "mp 1 9"},
        {"timeout_factor 5", "timeout_factor 5x"},
        {"detector hb", "detector hb lockset"},
        {"render.json 1", "render.json 1 0"},
    };
    for (const auto &[from, to] : edits) {
        std::string edited = text;
        const std::size_t at = edited.find("\n" + from + "\n");
        ASSERT_NE(at, std::string::npos) << from;
        edited.replace(at + 1, from.size(), to);
        EXPECT_FALSE(parseManifest(edited, &error).has_value()) << to;
        EXPECT_EQ(error, "manifest: bad line: " + to);
    }
}

TEST(FormatPinTest, ManifestDialsRefuseValuesTheCliRefuses)
{
    // The lowest values the CLI accepts parse and write back as is.
    CampaignConfig low = microConfig();
    low.analysis.mp = 1;
    low.analysis.ma = 1;
    low.analysis.max_steps = 1;
    low.analysis.executor_max_states = 1;
    low.analysis.detection_seed = 0;
    std::string error;
    const std::string low_text = manifestText(low);
    std::optional<CampaignConfig> back = parseManifest(low_text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(manifestText(*back), low_text);

    // Below them, or negative where `>>` into an unsigned would wrap
    // around, is a bad line.
    const std::string text = manifestText(microConfig());
    const std::pair<std::string, std::string> edits[] = {
        {"mp 5", "mp 0"},
        {"ma 2", "ma 0"},
        {"ma 2", "ma -3"},
        {"executor_max_states 512", "executor_max_states 0"},
        {"executor_max_states 512", "executor_max_states -5"},
        {"max_steps 2000000", "max_steps 0"},
        {"max_steps 2000000", "max_steps -5"},
        {"detection_seed 1", "detection_seed -1"},
        {"total_step_budget 0", "total_step_budget -0"},
    };
    for (const auto &[from, to] : edits) {
        std::string edited = text;
        const std::size_t at = edited.find("\n" + from + "\n");
        ASSERT_NE(at, std::string::npos) << from;
        edited.replace(at + 1, from.size(), to);
        EXPECT_FALSE(parseManifest(edited, &error).has_value()) << to;
        EXPECT_EQ(error, "manifest: bad line: " + to);
    }
}

TEST(SignatureTest, HexRoundTrip)
{
    const std::uint64_t v = 0x0123456789abcdefULL;
    EXPECT_EQ(hex16(v), "0123456789abcdef");
    std::uint64_t back = 0;
    ASSERT_TRUE(parseHex16(hex16(v), &back));
    EXPECT_EQ(back, v);
    EXPECT_FALSE(parseHex16("0123", &back));
    EXPECT_FALSE(parseHex16("012345678 abcdef", &back));
}

// -- Cache persistence -----------------------------------------------

TEST(CacheTest, EntryRoundTripAndTornWriteRejected)
{
    CacheEntry e;
    e.key = {0x1111, 0x2222, 0x3333};
    e.sig = signatureHex(e.key);
    e.name = "avv";
    e.payload = "line one\nline two\n";

    const std::string bytes = serializeCacheEntry(e);
    std::optional<CacheEntry> back = deserializeCacheEntry(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->sig, e.sig);
    EXPECT_TRUE(back->key == e.key);
    EXPECT_EQ(back->name, e.name);
    EXPECT_EQ(back->payload, e.payload);

    // A kill mid-write leaves fewer payload bytes than the header
    // promises: the loader must reject, never return a short verdict.
    EXPECT_FALSE(deserializeCacheEntry(
                     bytes.substr(0, bytes.size() - 5))
                     .has_value());
}

TEST(CacheTest, CorruptDiskEntryIsRepairedByStore)
{
    const std::string dir = scratchDir("cache_repair");
    CacheEntry e;
    e.key = {0xa1, 0xb2, 0xc3};
    e.sig = signatureHex(e.key);
    e.name = "unit";
    e.payload = "the verdict bytes";
    const std::string path = dir + "/" + e.sig + ".entry";
    {
        VerdictCache cache(dir);
        ASSERT_TRUE(cache.store(e));
    }
    // Corrupt the published entry (torn write, disk fault, ...).
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "garbage";
    }
    // A fresh instance (no memory layer masking the damage) rejects
    // the corrupt bytes...
    {
        VerdictCache cache(dir);
        EXPECT_FALSE(cache.probe(e.sig).has_value());
        // ...and store() must replace them, not early-return because
        // the file merely exists (the regression this test pins).
        ASSERT_TRUE(cache.store(e));
    }
    VerdictCache verify(dir);
    std::optional<CacheEntry> hit = verify.probe(e.sig);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->payload, e.payload);
}

TEST(CacheTest, WrongSignatureEntryIsReplacedByStore)
{
    // A valid entry file whose recorded signature disagrees with its
    // file name (e.g. a botched copy) is also repaired on store.
    const std::string dir = scratchDir("cache_wrongsig");
    CacheEntry right;
    right.key = {1, 2, 3};
    right.sig = signatureHex(right.key);
    right.name = "unit";
    right.payload = "right";
    CacheEntry wrong = right;
    wrong.key = {4, 5, 6};
    wrong.sig = signatureHex(wrong.key);
    wrong.payload = "wrong";
    {
        std::ofstream f(dir + "/" + right.sig + ".entry",
                        std::ios::binary);
        f << serializeCacheEntry(wrong);
    }
    VerdictCache cache(dir);
    EXPECT_FALSE(cache.probe(right.sig).has_value());
    ASSERT_TRUE(cache.store(right));
    VerdictCache verify(dir);
    std::optional<CacheEntry> hit = verify.probe(right.sig);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->payload, "right");
}

#ifndef _WIN32
TEST(CacheTest, CrossProcessStoreRaceLeavesOneValidEntry)
{
    // Two worker processes racing store() on one signature — the
    // serve layer's steady state. The temp + rename publish means
    // whichever rename lands last wins wholesale; the file must
    // never interleave bytes from both writers.
    const std::string dir = scratchDir("cache_race");
    CacheEntry e;
    e.key = {0x77, 0x88, 0x99};
    e.sig = signatureHex(e.key);
    e.name = "unit";
    e.payload = std::string(8192, 'p'); // big enough to tear
    std::vector<sub::Child> children;
    for (int c = 0; c < 2; ++c) {
        std::optional<sub::Child> child = sub::spawn(
            [dir, e](int) {
                VerdictCache cache(dir);
                for (int i = 0; i < 200; ++i)
                    if (!cache.store(e))
                        return 1;
                return 0;
            },
            nullptr);
        if (!child.has_value())
            return; // spawn unavailable: nothing to test
        children.push_back(*child);
    }
    for (sub::Child &c : children) {
        int status = -1;
        while (!sub::reap(c, &status))
            ;
        EXPECT_EQ(status, 0);
        sub::closeChannel(c);
    }
    VerdictCache verify(dir);
    std::optional<CacheEntry> hit = verify.probe(e.sig);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->payload, e.payload);
}
#endif // _WIN32

TEST(CacheTest, DiskEntriesSurviveAcrossInstances)
{
    const std::string dir = scratchDir("cache_disk");
    CacheEntry e;
    e.key = {7, 8, 9};
    e.sig = signatureHex(e.key);
    e.name = "unit";
    e.payload = "verdict";
    {
        VerdictCache cache(dir);
        ASSERT_TRUE(cache.store(e));
        EXPECT_EQ(cache.sizeOnDisk(), 1u);
    }
    VerdictCache fresh(dir);
    std::optional<CacheEntry> hit = fresh.probe(e.sig);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->payload, "verdict");
    EXPECT_FALSE(fresh.probe(signatureHex({1, 2, 3})).has_value());
}

// -- Journal ---------------------------------------------------------

TEST(JournalTest, RecordRoundTrip)
{
    JournalRecord rec;
    rec.unit = 5;
    rec.kind = "workload";
    rec.name = "avv";
    rec.key = {0xaaaa, 0xbbbb, 0xcccc};
    rec.sig = signatureHex(rec.key);

    JournalRecord back;
    ASSERT_TRUE(parseJournalLine(journalLine(rec), &back));
    EXPECT_EQ(back.unit, rec.unit);
    EXPECT_EQ(back.kind, rec.kind);
    EXPECT_EQ(back.name, rec.name);
    EXPECT_EQ(back.sig, rec.sig);
    EXPECT_TRUE(back.key == rec.key);
}

TEST(JournalTest, AdversarialEscapesRoundTrip)
{
    // Names with every character class the writer escapes: quotes,
    // backslashes, the named escapes, and raw control bytes (which
    // the writer emits as \u00XX).
    const std::vector<std::string> names = {
        "quo\"te",
        "back\\slash",
        "nl\ntab\tcr\r",
        std::string("ctl\x01\x1f\x07end"),
        "\\u0041 stays literal after a backslash escape",
        "mixed\"\\\n\t\r\x02\x1e",
    };
    for (const std::string &name : names) {
        JournalRecord rec;
        rec.unit = 3;
        rec.kind = "workload";
        rec.name = name;
        rec.key = {10, 20, 30};
        rec.sig = signatureHex(rec.key);
        JournalRecord back;
        ASSERT_TRUE(parseJournalLine(journalLine(rec), &back))
            << journalLine(rec);
        EXPECT_EQ(back.name, name);
    }
}

TEST(JournalTest, WideUnicodeEscapeIsRejectedNotTruncated)
{
    // The writer only ever emits \u00XX, so a wider value in a
    // journal line is not ours. The old reader truncated \u0100 to
    // its low byte, silently corrupting the unit name on load; the
    // record must be rejected instead (the unit then re-runs).
    JournalRecord rec;
    rec.unit = 1;
    rec.kind = "workload";
    rec.name = "XYZ";
    rec.key = {1, 2, 3};
    rec.sig = signatureHex(rec.key);
    const std::string line = journalLine(rec);
    const std::string needle = "\"name\": \"XYZ\"";
    const std::size_t at = line.find(needle);
    ASSERT_NE(at, std::string::npos);

    JournalRecord out;
    for (const char *esc : {"\\u0100", "\\u0041\\uffff", "\\uBEEF"}) {
        std::string mutated = line;
        mutated.replace(at, needle.size(),
                        "\"name\": \"" + std::string(esc) + "\"");
        EXPECT_FALSE(parseJournalLine(mutated, &out)) << mutated;
    }
    // \u00XX (the writer's own range) still parses.
    std::string ok = line;
    ok.replace(at, needle.size(), "\"name\": \"\\u00e9\"");
    ASSERT_TRUE(parseJournalLine(ok, &out));
    EXPECT_EQ(out.name, "\xe9");
}

TEST(JournalTest, TornFinalLineIsSkippedNotFatal)
{
    const std::string dir = scratchDir("journal_torn");
    const std::string path = dir + "/journal.jsonl";

    JournalRecord rec;
    rec.unit = 0;
    rec.kind = "workload";
    rec.name = "avv";
    rec.key = {1, 2, 3};
    rec.sig = signatureHex(rec.key);
    {
        JournalWriter w;
        ASSERT_TRUE(w.open(path));
        ASSERT_TRUE(w.append(rec));
    }
    // Simulate a kill mid-append: half a record, no newline.
    {
        std::ofstream f(path, std::ios::app | std::ios::binary);
        f << "{\"v\": 1, \"unit\": 1, \"ki";
    }
    int skipped = 0;
    std::vector<JournalRecord> recs = loadJournal(path, &skipped);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].name, "avv");
    EXPECT_EQ(skipped, 1);
}

// -- Campaign engine -------------------------------------------------

TEST(CampaignTest, ManifestRoundTrip)
{
    CampaignConfig config = microConfig();
    config.analysis.ma = 5;
    config.analysis.detection_seed = 17;
    config.analysis.explore = explore::ExploreMode::Random;
    config.analysis.sym_inputs.push_back({"flag", true, 0, 1});
    config.render.stats = true;

    std::string error;
    std::optional<CampaignConfig> back =
        parseManifest(manifestText(config), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(manifestText(*back), manifestText(config));
    EXPECT_EQ(back->units, config.units);
    EXPECT_EQ(back->analysis.ma, 5);
    EXPECT_EQ(back->analysis.sym_inputs.size(), 1u);

    EXPECT_FALSE(parseManifest("not-a-manifest\n", &error).has_value());
}

TEST(CampaignTest, EphemeralRunsAreByteIdenticalAcrossJobs)
{
    Campaign one(microConfig());
    CampaignResult r1 = one.run(-1, 1);
    ASSERT_TRUE(r1.error.empty()) << r1.error;
    ASSERT_TRUE(r1.complete());
    EXPECT_EQ(r1.executed, 3);

    Campaign four(microConfig());
    CampaignResult r4 = four.run(-1, 4);
    ASSERT_TRUE(r4.complete());
    EXPECT_EQ(r1.mergedOutput(true), r4.mergedOutput(true));

    // Same manifest, fresh engine, repeated run: same bytes again.
    Campaign again(microConfig());
    EXPECT_EQ(again.run(-1, 2).mergedOutput(true),
              r1.mergedOutput(true));
}

TEST(CampaignTest, AbortAndResumeMergeToUninterruptedBytes)
{
    Campaign baseline(microConfig());
    const std::string want = baseline.run(-1, 1).mergedOutput(true);

    const std::string dir = scratchDir("resume");
    fs::remove_all(dir);
    std::string error;
    std::optional<Campaign> c =
        Campaign::create(dir, microConfig(), &error);
    ASSERT_TRUE(c.has_value()) << error;

    // "Crash" after one journaled unit (exact with one worker).
    CampaignResult partial = c->run(1, 1);
    EXPECT_TRUE(partial.aborted);
    EXPECT_FALSE(partial.complete());
    EXPECT_EQ(partial.executed, 1);

    std::optional<Campaign> resumed = Campaign::open(dir, &error);
    ASSERT_TRUE(resumed.has_value()) << error;
    CampaignResult rest = resumed->run(-1, 1);
    ASSERT_TRUE(rest.complete());
    EXPECT_EQ(rest.resume_skips, 1);
    EXPECT_EQ(rest.executed, 2);
    EXPECT_EQ(rest.mergedOutput(true), want);

    // Warm re-run: the journal covers everything, nothing executes.
    std::optional<Campaign> warm = Campaign::open(dir, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    CampaignResult all = warm->run(-1, 1);
    ASSERT_TRUE(all.complete());
    EXPECT_EQ(all.executed, 0);
    EXPECT_EQ(all.resume_skips, 3);
    EXPECT_EQ(all.mergedOutput(true), want);
    EXPECT_GE(all.metrics.counter(obs::Counter::CampaignResumeSkips),
              3u);
}

TEST(CampaignTest, AbortFlagIsSetOnlyWhileUnitsRemain)
{
    Campaign baseline(microConfig());
    const std::string want = baseline.run(-1, 1).mergedOutput(true);

    // Three pending units, one worker: the cut is exact.
    Campaign cut(microConfig());
    CampaignResult partial = cut.run(2, 1);
    EXPECT_TRUE(partial.aborted);
    EXPECT_EQ(partial.executed, 2);
    EXPECT_FALSE(partial.complete());
    for (int limit : {3, 4}) {
        Campaign c(microConfig());
        CampaignResult all = c.run(limit, 1);
        EXPECT_FALSE(all.aborted) << limit;
        ASSERT_TRUE(all.complete()) << limit;
        EXPECT_EQ(all.mergedOutput(true), want) << limit;
    }

    // With four workers in-flight units still finish, so only the
    // resumed bytes are pinned.
    const std::string dir = scratchDir("abort_jobs4");
    std::string error;
    std::optional<Campaign> c =
        Campaign::create(dir, microConfig(), &error);
    ASSERT_TRUE(c.has_value()) << error;
    c->run(1, 4);
    std::optional<Campaign> resumed = Campaign::open(dir, &error);
    ASSERT_TRUE(resumed.has_value()) << error;
    CampaignResult rest = resumed->run(-1, 4);
    ASSERT_TRUE(rest.complete());
    EXPECT_EQ(rest.mergedOutput(true), want);
}

TEST(CampaignTest, TornJournalLineIsToleratedOnResume)
{
    Campaign baseline(microConfig());
    const std::string want = baseline.run(-1, 1).mergedOutput(true);

    const std::string dir = scratchDir("torn");
    fs::remove_all(dir);
    std::string error;
    std::optional<Campaign> c =
        Campaign::create(dir, microConfig(), &error);
    ASSERT_TRUE(c.has_value()) << error;
    c->run(2, 1);

    {
        std::ofstream f(dir + "/journal.jsonl",
                        std::ios::app | std::ios::binary);
        f << "{\"v\": 1, \"unit\": 2, \"kind\": \"work";
    }
    std::optional<Campaign> resumed = Campaign::open(dir, &error);
    ASSERT_TRUE(resumed.has_value()) << error;
    CampaignResult rest = resumed->run(-1, 1);
    ASSERT_TRUE(rest.complete());
    EXPECT_GE(rest.journal_torn, 1);
    EXPECT_EQ(rest.mergedOutput(true), want);
}

TEST(CampaignTest, CreateRejectsManifestMismatch)
{
    const std::string dir = scratchDir("mismatch");
    fs::remove_all(dir);
    std::string error;
    ASSERT_TRUE(Campaign::create(dir, microConfig(), &error).has_value())
        << error;

    CampaignConfig other = microConfig();
    other.analysis.ma = 9;
    EXPECT_FALSE(Campaign::create(dir, other, &error).has_value());
    EXPECT_FALSE(error.empty());
}

// -- Fuzz verdict payload + fuzz campaign ----------------------------

TEST(FuzzVerdictTest, SerializeRoundTrip)
{
    fuzz::OracleVerdict v;
    v.outcome = "exited";
    v.distinct_races = 2;
    v.dynamic_races = 5;
    v.class_counts = {{"spec violated", 1}, {"k-witness harmless", 1}};
    v.baseline_counts = {{"replay-analyzer-conservative-fp", 3}};
    v.checks = {{"determinism", true, ""},
                {"hb-subset-lockset", false, "cell c raced\nonly in hb"}};
    v.trace_text = "trace v1\nstep 0\nstep 1\n";
    v.report_text = "report\nwith \"quotes\" and\nnewlines";
    v.witness_text = "";

    const std::string bytes = fuzz::serializeVerdict(v);
    std::string error;
    std::optional<fuzz::OracleVerdict> back =
        fuzz::deserializeVerdict(bytes, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->outcome, v.outcome);
    EXPECT_EQ(back->distinct_races, v.distinct_races);
    EXPECT_EQ(back->dynamic_races, v.dynamic_races);
    EXPECT_EQ(back->class_counts, v.class_counts);
    EXPECT_EQ(back->baseline_counts, v.baseline_counts);
    ASSERT_EQ(back->checks.size(), 2u);
    EXPECT_EQ(back->checks[1].detail, v.checks[1].detail);
    EXPECT_FALSE(back->checks[1].ok);
    EXPECT_EQ(back->trace_text, v.trace_text);
    EXPECT_EQ(back->report_text, v.report_text);
    EXPECT_EQ(fuzz::serializeVerdict(*back), bytes);

    // Truncations and garbage must yield nullopt, never a partial
    // verdict (the campaign then re-runs the oracle).
    for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                            std::size_t{10}, std::size_t{0}}) {
        EXPECT_FALSE(
            fuzz::deserializeVerdict(bytes.substr(0, cut)).has_value())
            << "cut at " << cut;
    }
    EXPECT_FALSE(fuzz::deserializeVerdict(bytes + "x").has_value());
}

TEST(FuzzCampaignTest, WarmRerunHitsCacheForEveryProgram)
{
    const std::string dir = scratchDir("fuzz_warm");
    fs::remove_all(dir);

    fuzz::FuzzOptions opts;
    opts.budget = 6;
    opts.jobs = 1;
    opts.campaign_dir = dir;

    fuzz::FuzzResult cold = fuzz::runFuzz(opts);
    EXPECT_EQ(cold.cache_hits, 0);

    fuzz::FuzzResult warm = fuzz::runFuzz(opts);
    EXPECT_EQ(warm.cache_hits, cold.verifier_clean);
    EXPECT_EQ(warm.programs, cold.programs);
    EXPECT_EQ(warm.flagged, cold.flagged);
    EXPECT_EQ(warm.outcome_counts, cold.outcome_counts);
    EXPECT_EQ(warm.class_counts, cold.class_counts);
    EXPECT_EQ(warm.check_runs, cold.check_runs);

    // A different detection seed is a different signature: no hits.
    fuzz::FuzzOptions other = opts;
    other.detection_seed = 77;
    EXPECT_EQ(fuzz::runFuzz(other).cache_hits, 0);
}

} // namespace
} // namespace portend::campaign
