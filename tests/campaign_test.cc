/**
 * @file
 * Campaign engine tests: cache-key stability (the signature is a
 * pure function of program + analysis config, never of worker count
 * or run count, and the detection trace, which it does not name, is
 * a function of the same dials), change detection (every
 * verdict-relevant dial and every program edit moves the
 * signature), cache persistence round-trips with torn-write
 * tolerance, and the headline resume property — a campaign killed
 * after N units and resumed merges to bytes identical to an
 * uninterrupted run.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "campaign/cache.h"
#include "campaign/campaign.h"
#include "campaign/signature.h"
#include "support/subproc.h"
#include "fuzz/generator.h"
#include "ir/serialize.h"
#include "portend/portend.h"
#include "rt/decode.h"
#include "support/hash.h"
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

/** The serialized trace a detection run of @p w records. */
std::string
detectedTrace(const workloads::Workload &w, const core::PortendOptions &o)
{
    core::PortendOptions opts = o;
    opts.semantic_predicates = w.semantic_predicates;
    return core::Portend(w.program, opts).detect().trace.serialize();
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

/** Units of @p r that ran the full pipeline. */
std::uint64_t
misses(const CampaignResult &r)
{
    return r.metrics.counter(obs::Counter::CampaignCacheMisses);
}

/** Units of @p r whose payload came from the cache. */
std::uint64_t
hits(const CampaignResult &r)
{
    return r.metrics.counter(obs::Counter::CampaignCacheHits);
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

TEST(SignatureTest, SameDialsRecordTheSameTrace)
{
    // The key's premise: classification consumes the recorded trace
    // verbatim, yet the key does not name it, because a program run
    // under the same max_steps and detector (both in the config hash)
    // always records the same trace. detection_seed, a cache
    // namespace, records the same trace as the default.
    core::PortendOptions seeded;
    seeded.detection_seed = 7;
    core::PortendOptions lockset;
    lockset.detector = core::DetectorKind::Lockset;
    for (const std::string &name : workloads::workloadNames()) {
        const workloads::Workload w = workloads::buildWorkload(name);
        for (const core::PortendOptions &o :
             {core::PortendOptions{}, lockset}) {
            const std::string first = detectedTrace(w, o);
            EXPECT_FALSE(first.empty()) << name;
            EXPECT_EQ(detectedTrace(w, o), first) << name;
        }
        EXPECT_EQ(detectedTrace(w, seeded),
                  detectedTrace(w, core::PortendOptions{}))
            << name;
    }
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
// Literal manifest bytes, config hashes and a campaign-unit
// signature. Campaign directories written by earlier builds must keep
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

TEST(FormatPinTest, CampaignUnitSignature)
{
    // The name `campaign run --json` stores unit avv's verdict under
    // at default dials: program fingerprint and config hash, with the
    // retired trace-hash slot at 0.
    CampaignConfig config;
    config.render.json = true;
    config.units = {{"workload", "avv"}};
    Campaign c(config);
    CampaignResult r = c.run(-1, 1);
    ASSERT_TRUE(r.complete()) << r.error;
    EXPECT_EQ(r.units[0].sig, "f750c861ffd0b7f8");
}

TEST(FormatPinTest, ProgramTextDigest)
{
    // The PIL text of the 11 registry workloads and of the 200
    // programs of fuzz seed 42. A writer that changed its format and
    // its reader together would still pass every round-trip test;
    // corpus entries on disk would not reopen.
    std::string text;
    for (const std::string &name : workloads::workloadNames())
        text += ir::serializeProgram(workloads::buildWorkload(name).program);
    for (std::uint64_t i = 0; i < 200; ++i)
        text += ir::serializeProgram(
            fuzz::generateProgram(42, i, fuzz::GeneratorOptions{}).program);
    EXPECT_EQ(text.size(), 910737u);
    EXPECT_EQ(hex16(fnv1a(text)), "1499ba89bcaaa5b8");
}

TEST(FormatPinTest, RetiredDialsParseOnlyAtTheirFixedValues)
{
    CampaignConfig config;
    config.units = {{"workload", "avv"}};
    const std::string text = manifestText(config);
    for (const char *line :
         {"render.stats 0\n", "max_symbolic_inputs 2\n",
          "timeout_factor 5\n", "explore dpor\n",
          "preemption_bound 4\n", "solver.max_assignments 200000\n",
          "solver.max_candidates 128\n", "total_state_budget 0\n",
          "total_step_budget 0\n"})
        EXPECT_NE(text.find(line), std::string::npos) << line;
    std::string error;
    ASSERT_TRUE(parseManifest(text, &error).has_value()) << error;

    const std::pair<std::string, std::string> edits[] = {
        {"render.stats 0", "render.stats 1"},
        {"timeout_factor 5", "timeout_factor 7"},
        {"explore dpor", "explore random"},
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
    config.render.only_class = core::RaceClass::OutputDiffers;
    config.analysis.multi_path = false;
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
    // The lowest values the CLI accepts parse and write back as is,
    // a one-value symbolic-input range (`--sym-input n=5..5`) among
    // them.
    rt::SymInputSpec one;
    one.name = "n";
    one.has_range = true;
    one.lo = 5;
    one.hi = 5;
    CampaignConfig low = microConfig();
    low.analysis.mp = 1;
    low.analysis.ma = 1;
    low.analysis.max_steps = 1;
    low.analysis.executor_max_states = 1;
    low.analysis.detection_seed = 0;
    low.analysis.sym_inputs.push_back(one);
    std::string error;
    const std::string low_text = manifestText(low);
    ASSERT_NE(low_text.find("\nsym_input 1 5 5 n\n"), std::string::npos);
    std::optional<CampaignConfig> back = parseManifest(low_text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(manifestText(*back), low_text);

    // Below them, negative where the dial is unsigned, an empty
    // range, or a field the writer never writes (a '+', a second
    // blank, a tab, a switch other than 0 or 1) is a bad line.
    CampaignConfig base = microConfig();
    base.analysis.sym_inputs.push_back(one);
    const std::string text = manifestText(base);
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
        {"sym_input 1 5 5 n", "sym_input 1 9 0 n"},
        {"mp 5", "mp +5"},
        {"mp 5", "mp  5"},
        {"ma 2", "ma\t2"},
        {"max_steps 2000000", "max_steps +2000000"},
        {"adhoc 1", "adhoc 2"},
    };
    for (const auto &[from, to] : edits) {
        std::string edited = text;
        const std::size_t at = edited.find("\n" + from + "\n");
        ASSERT_NE(at, std::string::npos) << from;
        edited.replace(at + 1, from.size(), to);
        EXPECT_FALSE(parseManifest(edited, &error).has_value()) << to;
        EXPECT_EQ(error, "manifest: bad line: " + to);
    }

    // The writer names each dial once, so a second line for one is a
    // bad line, with a new value or the same, the fixed dials,
    // `explore`, `detector` and `render.*` included. Only `unit` and
    // `sym_input` lines repeat.
    CampaignConfig once = base;
    once.render.only_class = core::RaceClass::SpecViolated;
    const std::string once_text = manifestText(once);
    const std::pair<std::string, std::string> repeats[] = {
        {"mp 5", "mp 1"},
        {"ma 2", "ma 2"},
        {"render.json 1", "render.json 0"},
        {"render.stats 0", "render.stats 0"},
        {"render.classify 0", "render.classify 1"},
        {"render.only_class spec violated",
         "render.only_class output differs"},
        {"adhoc 1", "adhoc 0"},
        {"multi_path 1", "multi_path 1"},
        {"multi_schedule 1", "multi_schedule 0"},
        {"max_symbolic_inputs 2", "max_symbolic_inputs 2"},
        {"timeout_factor 5", "timeout_factor 5"},
        {"max_steps 2000000", "max_steps 2000000"},
        {"detection_seed 1", "detection_seed 7"},
        {"detector hb", "detector hb"},
        {"explore dpor", "explore dpor"},
        {"executor_max_states 512", "executor_max_states 512"},
        {"total_step_budget 0", "total_step_budget 0"},
        {"unit workload dbm", "mp 1"},
    };
    for (const auto &[after, repeat] : repeats) {
        std::string edited = once_text;
        const std::size_t at = edited.find("\n" + after + "\n");
        ASSERT_NE(at, std::string::npos) << after;
        edited.insert(at + after.size() + 2, repeat + "\n");
        EXPECT_FALSE(parseManifest(edited, &error).has_value()) << repeat;
        EXPECT_EQ(error, "manifest: bad line: " + repeat);
    }
    std::string twice = once_text;
    twice.insert(twice.find("\ntimeout_factor") + 1,
                 "sym_input 0 0 0 m\n");
    twice += "unit workload avv\n";
    back = parseManifest(twice, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->analysis.sym_inputs.size(), 2u);
    EXPECT_EQ(back->units.size(), 4u);
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
    e.key = {0x1111, 0x3333};
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

    // The byte count is the whole field, digits only: an empty count
    // is no 0, and a sign, a blank or trailing junk is no digit.
    e.payload = "abc";
    const std::string abc = serializeCacheEntry(e);
    ASSERT_TRUE(deserializeCacheEntry(abc).has_value());
    const std::string head = abc.substr(0, abc.find("bytes 3\n"));
    for (const std::string bad :
         {"bytes \n", "bytes +3\nabc", "bytes  3\nabc", "bytes 3x\nabc"})
        EXPECT_FALSE(deserializeCacheEntry(head + bad).has_value())
            << bad;
}

TEST(CacheTest, CorruptDiskEntryIsRepairedByStore)
{
    const std::string dir = scratchDir("cache_repair");
    CacheEntry e;
    e.key = {0xa1, 0xc3};
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
    // A probe rejects the corrupt bytes...
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
    right.key = {1, 3};
    right.sig = signatureHex(right.key);
    right.name = "unit";
    right.payload = "right";
    CacheEntry wrong = right;
    wrong.key = {4, 6};
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
    e.key = {0x77, 0x99};
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
    e.key = {7, 9};
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
    EXPECT_FALSE(fresh.probe(signatureHex({1, 3})).has_value());
}

// -- Campaign engine -------------------------------------------------

TEST(CampaignTest, ManifestRoundTrip)
{
    CampaignConfig config = microConfig();
    config.analysis.ma = 5;
    config.analysis.detection_seed = 17;
    config.analysis.detector = core::DetectorKind::HappensBeforeNoMutex;
    config.analysis.sym_inputs.push_back({"flag", true, 0, 1});

    std::string error;
    std::optional<CampaignConfig> back =
        parseManifest(manifestText(config), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(manifestText(*back), manifestText(config));
    EXPECT_EQ(back->units, config.units);
    EXPECT_EQ(back->analysis.ma, 5);
    EXPECT_EQ(back->analysis.detector,
              core::DetectorKind::HappensBeforeNoMutex);
    EXPECT_EQ(back->analysis.sym_inputs.size(), 1u);
    // A cache namespace reopens as written (EveryAnalysisDialMovesTheKey
    // keys it apart from the default).
    EXPECT_EQ(back->analysis.detection_seed, 17u);

    EXPECT_FALSE(parseManifest("not-a-manifest\n", &error).has_value());
}

TEST(CampaignTest, EphemeralRunsAreByteIdenticalAcrossJobs)
{
    Campaign one(microConfig());
    CampaignResult r1 = one.run(-1, 1);
    ASSERT_TRUE(r1.error.empty()) << r1.error;
    ASSERT_TRUE(r1.complete());
    EXPECT_EQ(misses(r1), 3u);

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

    // "Crash" after one stored unit (exact with one worker).
    CampaignResult partial = c->run(1, 1);
    EXPECT_TRUE(partial.aborted);
    EXPECT_FALSE(partial.complete());
    EXPECT_EQ(misses(partial), 1u);

    std::optional<Campaign> resumed = Campaign::open(dir, &error);
    ASSERT_TRUE(resumed.has_value()) << error;
    CampaignResult rest = resumed->run(-1, 1);
    ASSERT_TRUE(rest.complete());
    EXPECT_EQ(hits(rest), 1u);
    EXPECT_EQ(misses(rest), 2u);
    EXPECT_EQ(rest.mergedOutput(true), want);

    // Warm re-run: the cache holds everything, nothing executes.
    std::optional<Campaign> warm = Campaign::open(dir, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    CampaignResult all = warm->run(-1, 1);
    ASSERT_TRUE(all.complete());
    EXPECT_EQ(misses(all), 0u);
    EXPECT_EQ(hits(all), 3u);
    EXPECT_EQ(all.mergedOutput(true), want);
    EXPECT_EQ(all.metrics.counter(obs::Counter::DetectRuns), 0u);

    // A lost entry re-runs only its own unit.
    fs::directory_iterator entries(dir + "/cache");
    ASSERT_NE(entries, fs::directory_iterator());
    fs::remove(entries->path());
    std::optional<Campaign> lost = Campaign::open(dir, &error);
    ASSERT_TRUE(lost.has_value()) << error;
    EXPECT_EQ(lost->status().completed_units, 2u);
    CampaignResult again = lost->run(-1, 1);
    ASSERT_TRUE(again.complete());
    EXPECT_EQ(misses(again), 1u);
    EXPECT_EQ(hits(again), 2u);
    EXPECT_EQ(again.mergedOutput(true), want);
}

TEST(CampaignTest, AbortFlagIsSetOnlyWhileUnitsRemain)
{
    Campaign baseline(microConfig());
    const std::string want = baseline.run(-1, 1).mergedOutput(true);

    // Three pending units, one worker: the cut is exact.
    Campaign cut(microConfig());
    CampaignResult partial = cut.run(2, 1);
    EXPECT_TRUE(partial.aborted);
    EXPECT_EQ(misses(partial), 2u);
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

TEST(CampaignTest, EditedFileUnitIsReclassifiedOnResume)
{
    // A `file` unit is keyed by the program it loads, so editing the
    // file after its verdict was stored makes the resumed run
    // classify the new program, never serve the old verdict.
    const std::string dir = scratchDir("edited_file");
    const std::string path = dir + "/prog.pil";
    const auto write = [&path](const std::string &workload) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << ir::serializeProgram(
            workloads::buildWorkload(workload).program);
    };
    CampaignConfig config;
    config.render.json = true;
    config.units = {{"file", path}};

    write("avv");
    std::string error;
    std::optional<Campaign> c =
        Campaign::create(dir + "/camp", config, &error);
    ASSERT_TRUE(c.has_value()) << error;
    const std::string before = c->run(-1, 1).mergedOutput(true);

    write("dcl");
    const std::string want = Campaign(config).run(-1, 1).mergedOutput(true);
    ASSERT_NE(want, before);
    std::optional<Campaign> resumed =
        Campaign::open(dir + "/camp", &error);
    ASSERT_TRUE(resumed.has_value()) << error;
    EXPECT_EQ(resumed->status().completed_units, 0u);
    CampaignResult rest = resumed->run(-1, 1);
    ASSERT_TRUE(rest.complete()) << rest.error;
    EXPECT_EQ(misses(rest), 1u);
    EXPECT_EQ(hits(rest), 0u);
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

} // namespace
} // namespace portend::campaign
