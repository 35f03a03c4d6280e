/**
 * @file
 * Serve-layer tests: wire-protocol round trips and mutant-fuzz
 * robustness (PR 3 style — mutated frames must parse or poison,
 * never crash), subprocess supervision primitives, and the headline
 * end-to-end properties of `portend serve`: a submission's merged
 * verdict bytes are identical to a single-process campaign run at
 * 1, 2 and 4 workers, including after a worker is SIGKILLed mid-unit
 * (its claimed but unreported units are re-dispatched), between two
 * units (the respawned worker gets the next one) or by the stuck-unit
 * timeout, and after the server itself is SIGKILLed and restarted (a
 * resubmission dispatches only the units whose cache entries are
 * missing); a resubmission of the same manifest is answered entirely
 * from the cache. A unit that fails on every attempt fails its
 * submission once the attempts budget is spent, a second server may
 * not take over a live server's socket, and finished submissions
 * give their memory back.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "campaign/cache.h"
#include "campaign/campaign.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/subproc.h"
#include "support/wire.h"

namespace fs = std::filesystem;

namespace portend {
namespace {

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("serve_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

// -- Wire protocol ----------------------------------------------------

TEST(WireTest, EncodeDecodeRoundTrip)
{
    const std::vector<wire::Frame> frames = {
        {"ping", ""},
        {"submit", "line one\nline two\n"},
        {"result", std::string("bin\0ary\nbytes", 13)},
        {"a", std::string(100000, 'x')},
    };
    std::string stream;
    for (const wire::Frame &f : frames)
        stream += wire::encodeFrame(f);

    wire::FrameReader r;
    r.feed(stream.data(), stream.size());
    for (const wire::Frame &want : frames) {
        std::optional<wire::Frame> got = r.next();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->type, want.type);
        EXPECT_EQ(got->payload, want.payload);
    }
    EXPECT_FALSE(r.next().has_value());
    EXPECT_FALSE(r.failed());
}

TEST(WireTest, OneBytePerFeedReassembles)
{
    const wire::Frame want = {"status_ok", "{\"busy\": 0}"};
    const std::string bytes = wire::encodeFrame(want);
    wire::FrameReader r;
    std::optional<wire::Frame> got;
    for (char c : bytes) {
        ASSERT_FALSE(got.has_value());
        r.feed(&c, 1);
        got = r.next();
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, want.type);
    EXPECT_EQ(got->payload, want.payload);
}

TEST(WireTest, MalformedHeadersPoisonPermanently)
{
    const std::vector<std::string> bad = {
        "xsrv1 ping 0\n",         // wrong magic
        "psrv1 PING 0\n",         // uppercase type
        "psrv1 pi-ng 0\n",        // bad type char
        "psrv1 ping -1\n",        // negative size
        "psrv1 ping 0x10\n",      // hex size
        "psrv1 ping 999999999999999\n", // over the payload cap
        "psrv1 " + std::string(64, 'a') + " 0\n", // overlong type
        "psrv1 ping\n",           // missing size
        std::string(128, 'z'),    // no newline within header bound
    };
    for (const std::string &b : bad) {
        wire::FrameReader r;
        r.feed(b.data(), b.size());
        EXPECT_FALSE(r.next().has_value()) << b;
        EXPECT_TRUE(r.failed()) << b;
        // Poisoned for good: later valid bytes must not resurrect it.
        const std::string good = wire::encodeFrame({"ping", ""});
        r.feed(good.data(), good.size());
        EXPECT_FALSE(r.next().has_value()) << b;
        EXPECT_TRUE(r.failed()) << b;
    }
}

TEST(WireTest, MutantFuzzParseOrPoisonNeverCrash)
{
    // PR 3 style: mutate every byte of a valid two-frame stream
    // through a few deterministic operators. Every mutant must
    // either parse into well-formed frames or poison the reader —
    // and a returned frame always satisfies the protocol bounds.
    const std::string base = wire::encodeFrame({"submit", "abc\n"}) +
                             wire::encodeFrame({"done", "7 deadbeef 0"});
    int parsed = 0, poisoned = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        for (int op = 0; op < 3; ++op) {
            std::string m = base;
            if (op == 0)
                m[i] = static_cast<char>(m[i] ^ 0x20);
            else if (op == 1)
                m.erase(i, 1);
            else
                m.insert(i, 1, '\n');
            wire::FrameReader r;
            r.feed(m.data(), m.size());
            int frames = 0;
            while (std::optional<wire::Frame> f = r.next()) {
                frames += 1;
                EXPECT_TRUE(wire::validFrameType(f->type));
                EXPECT_LE(f->payload.size(), wire::kMaxFramePayload);
                ASSERT_LE(frames, 4); // no infinite frame streams
            }
            if (r.failed())
                poisoned += 1;
            else
                parsed += 1;
        }
    }
    // Both outcomes must actually occur across the battery.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(poisoned, 0);
}

#ifndef _WIN32

// -- Subprocess supervision ------------------------------------------

TEST(SubprocTest, SpawnEchoTerminateReap)
{
    std::string err;
    std::optional<sub::Child> child = sub::spawn(
        [](int fd) {
            char buf[64];
            for (;;) {
                const long r = sub::readSome(fd, buf, sizeof buf);
                if (r <= 0)
                    return 0;
                if (!sub::writeAll(fd, buf,
                                   static_cast<std::size_t>(r)))
                    return 1;
            }
        },
        &err);
    ASSERT_TRUE(child.has_value()) << err;
    ASSERT_TRUE(child->running());
    const char msg[] = "round trip";
    ASSERT_TRUE(sub::writeAll(child->fd, msg, sizeof msg - 1));
    char buf[64];
    const long r = sub::readSome(child->fd, buf, sizeof buf);
    ASSERT_EQ(r, static_cast<long>(sizeof msg - 1));
    EXPECT_EQ(std::string(buf, static_cast<std::size_t>(r)), msg);
    sub::terminate(*child, 2.0);
    EXPECT_FALSE(child->running());
}

TEST(SubprocTest, SigkilledChildIsReaped)
{
    std::string err;
    std::optional<sub::Child> child = sub::spawn(
        [](int fd) {
            char buf[8];
            while (sub::readSome(fd, buf, sizeof buf) > 0) {
            }
            // Linger even after the channel closes.
            for (;;)
                ::usleep(100 * 1000);
            return 0; // unreachable; fixes the deduced return type
        },
        &err);
    ASSERT_TRUE(child.has_value()) << err;
    sub::kill(*child, SIGKILL);
    while (!sub::reap(*child))
        ::usleep(1000);
    EXPECT_FALSE(child->running());
    sub::closeChannel(*child);
}

// -- End-to-end server -----------------------------------------------

/** The 3-unit manifest the serve tests submit. */
campaign::CampaignConfig
microConfig()
{
    campaign::CampaignConfig config;
    config.render.json = true;
    config.units = {{"workload", "avv"},
                    {"workload", "dcl"},
                    {"workload", "dbm"}};
    return config;
}

/** What a single-process run of @p config renders. */
std::string
ephemeralBytes(const campaign::CampaignConfig &config)
{
    campaign::Campaign engine(config);
    campaign::CampaignResult res = engine.run(-1, 1);
    EXPECT_TRUE(res.complete());
    return res.mergedOutput(config.render.json);
}

/** Fork a `portend serve` equivalent: Server::start + loop in a
 *  child process. Returns the child (reply channel unused). */
std::optional<sub::Child>
startServer(const serve::ServeOptions &so, std::string *err)
{
    return sub::spawn(
        [so](int) {
            serve::Server server(so);
            std::string e;
            if (!server.start(&e)) {
                std::fprintf(stderr, "server: %s\n", e.c_str());
                return 1;
            }
            return server.loop();
        },
        err);
}

int
waitExit(sub::Child &child)
{
    int status = -1;
    while (!sub::reap(child, &status))
        ::usleep(2000);
    sub::closeChannel(child);
    return status;
}

/** SIGKILLs and reaps a forked server at scope exit unless it has
 *  exited already, so a failed assertion cannot leave it running. */
class ServerGuard
{
  public:
    explicit ServerGuard(sub::Child &child) : child_(child) {}
    ServerGuard(const ServerGuard &) = delete;
    ServerGuard &operator=(const ServerGuard &) = delete;
    ~ServerGuard()
    {
        if (child_.running()) {
            sub::kill(child_, SIGKILL);
            waitExit(child_);
        }
    }

  private:
    sub::Child &child_;
};

TEST(ServeTest, SubmitMatchesSingleProcessCampaignBytes)
{
    const campaign::CampaignConfig config = microConfig();
    const std::string expected = ephemeralBytes(config);
    const std::string manifest = campaign::manifestText(config);
    for (int workers : {1, 2, 4}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        const std::string dir =
            scratchDir("e2e" + std::to_string(workers));

        serve::ServeOptions so;
        so.dir = dir + "/state";
        so.socket_path = dir + "/sock";
        so.workers = workers;
        std::string err;
        std::optional<sub::Child> server = startServer(so, &err);
        ASSERT_TRUE(server.has_value()) << err;
        ServerGuard guard(*server);

        serve::Endpoint ep;
        ep.socket_path = so.socket_path;
        ASSERT_TRUE(serve::ping(ep, &err)) << err;

        std::string out;
        ASSERT_TRUE(serve::submit(ep, manifest, &out, &err)) << err;
        EXPECT_EQ(out, expected);

        // Resubmission: every unit is in the cache now, so the answer
        // comes from the probe phase without dispatching anything —
        // and is the same bytes.
        std::string out2;
        ASSERT_TRUE(serve::submit(ep, manifest, &out2, &err)) << err;
        EXPECT_EQ(out2, expected);

        std::string status;
        ASSERT_TRUE(serve::requestStatus(ep, &status, &err)) << err;
        EXPECT_NE(status.find("\"units_dispatched\": 3,"),
                  std::string::npos)
            << status;
        EXPECT_NE(status.find("\"units_completed\": 3"),
                  std::string::npos)
            << status;
        EXPECT_NE(status.find("\"submissions\": 2"), std::string::npos)
            << status;

        ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
        EXPECT_EQ(waitExit(*server), 0);
    }
}

TEST(ServeTest, UnitsCachedCountsTheProbesHits)
{
    // With no re-dispatch, units submitted = completed + cached: a
    // cold, a repeat and a k-3 submission of the registry under
    // `detection_seed 3` (a cache namespace of its own) run 22 units
    // and take the repeat's 11 from the probe.
    campaign::CampaignConfig cold;
    cold.units = campaign::registryUnits();
    campaign::CampaignConfig k3 = cold;
    k3.analysis.detection_seed = 3;
    k3.analysis.mp = 3;
    k3.analysis.ma = 1;
    k3.analysis.multi_schedule = false;

    const std::string dir = scratchDir("units_cached");
    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    so.workers = 2;
    std::string err;
    std::optional<sub::Child> server = startServer(so, &err);
    ASSERT_TRUE(server.has_value()) << err;
    ServerGuard guard(*server);
    serve::Endpoint ep;
    ep.socket_path = so.socket_path;
    for (const campaign::CampaignConfig *c : {&cold, &cold, &k3}) {
        std::string out;
        ASSERT_TRUE(serve::submit(ep, campaign::manifestText(*c), &out,
                                  &err))
            << err;
    }
    std::string status;
    ASSERT_TRUE(serve::requestStatus(ep, &status, &err)) << err;
    for (const char *want :
         {"\"units_dispatched\": 22,", "\"units_completed\": 22,",
          "\"units_cached\": 11,"})
        EXPECT_NE(status.find(want), std::string::npos) << status;
    ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
    EXPECT_EQ(waitExit(*server), 0);
}

/** The number after `"key": ` in a `--status` answer, or -1. */
long
statusCount(const std::string &status, const std::string &key)
{
    const std::string tag = "\"" + key + "\": ";
    const std::size_t at = status.find(tag);
    return at == std::string::npos
               ? -1
               : std::stol(status.substr(at + tag.size()));
}

TEST(ServeTest, SigkilledWorkerUnitsAreRedispatched)
{
    const campaign::CampaignConfig config = microConfig();
    const std::string expected = ephemeralBytes(config);
    const std::string dir = scratchDir("kill");

    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    // One worker + kill injection after the first completion: the
    // worker is SIGKILLed while busy on the next unit, which must be
    // re-dispatched to the respawned worker.
    so.workers = 1;
    so.kill_worker_after = 1;
    std::string err;
    std::optional<sub::Child> server = startServer(so, &err);
    ASSERT_TRUE(server.has_value()) << err;
    ServerGuard guard(*server);

    serve::Endpoint ep;
    ep.socket_path = so.socket_path;
    std::string out;
    ASSERT_TRUE(serve::submit(ep, campaign::manifestText(config),
                              &out, &err))
        << err;
    EXPECT_EQ(out, expected);

    std::string status;
    ASSERT_TRUE(serve::requestStatus(ep, &status, &err)) << err;
    EXPECT_NE(status.find("\"worker_deaths\": 1"), std::string::npos)
        << status;
    EXPECT_NE(status.find("\"worker_restarts\": 1"),
              std::string::npos)
        << status;
    // A re-dispatched unit adds one dispatch per extra attempt: the
    // kill hit a busy worker, so one unit was dispatched twice and
    // every unit completed once.
    EXPECT_EQ(statusCount(status, "units_completed"), 3) << status;
    EXPECT_EQ(statusCount(status, "units_dispatched"),
              statusCount(status, "units_completed") + 1)
        << status;

    ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
    EXPECT_EQ(waitExit(*server), 0);
}

/** Scheduler state of @p pid in /proc/<pid>/stat ('R' running, 'S'
 *  sleeping, 'T' stopped, 'Z' zombie), or 0 once it is gone. */
char
procState(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(in, stat);
    const std::size_t end = stat.rfind(") ");
    return end == std::string::npos ? 0 : stat[end + 2];
}

/** The first child process of the single-threaded @p pid, or -1. */
long
firstChild(long pid)
{
    const std::string p = std::to_string(pid);
    std::ifstream in("/proc/" + p + "/task/" + p + "/children");
    long child = -1;
    in >> child;
    return child;
}

/** Poll @p done about every 100 us for up to @p seconds. */
template <class Done>
bool
waitFor(double seconds, Done done)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
    while (!done()) {
        if (std::chrono::steady_clock::now() >= until)
            return false;
        ::usleep(100);
    }
    return true;
}

// A worker that dies after answering and before its next dispatch:
// the server reads the answer, its write of the next unit fails, and
// it respawns the worker, which must then get the unit at once —
// nothing else would wake the server's poll. The window is forced:
// stop the server while its one worker computes, let the worker
// answer into the stopped server's channel, SIGKILL it, resume the
// server. An attempt that stops the server only once no unit is left
// to dispatch misses the window and is retried.
TEST(ServeTest, WorkerDeadAtDispatchGetsTheUnitAfterRespawn)
{
    campaign::CampaignConfig config;
    config.render.json = true;
    config.units = {{"workload", "avv"},
                    {"workload", "pbzip2"},
                    {"workload", "dbm"}};
    const std::string expected = ephemeralBytes(config);
    const std::string manifest = campaign::manifestText(config);

    bool hit = false;
    for (int attempt = 0; attempt < 20 && !hit; ++attempt) {
        SCOPED_TRACE("attempt " + std::to_string(attempt));
        const std::string dir =
            scratchDir("stall" + std::to_string(attempt));
        serve::ServeOptions so;
        so.dir = dir + "/state";
        so.socket_path = dir + "/sock";
        so.workers = 1;
        std::string err;
        std::optional<sub::Child> server = startServer(so, &err);
        ASSERT_TRUE(server.has_value()) << err;
        ServerGuard guard(*server);
        serve::Endpoint ep;
        ep.socket_path = so.socket_path;
        ASSERT_TRUE(serve::ping(ep, &err)) << err;
        const long worker = firstChild(server->pid);
        ASSERT_GT(worker, 0);

        std::string out, submit_err;
        std::future<bool> reply = std::async(std::launch::async, [&] {
            return serve::submit(ep, manifest, &out, &submit_err);
        });
        const auto answered = [&] {
            return reply.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
        };

        bool stopped = false;
        waitFor(10.0, [&] {
            if (procState(worker) == 'R') {
                ::kill(static_cast<pid_t>(server->pid), SIGSTOP);
                stopped = true;
            }
            return stopped || answered();
        });
        // No assertion may return while the server is stopped: the
        // pending reply would block the return.
        if (stopped) {
            // The worker answers into the stopped server's channel,
            // then sleeps waiting for its next unit.
            int idle = 0;
            EXPECT_TRUE(waitFor(30.0, [&] {
                idle = procState(worker) == 'S' ? idle + 1 : 0;
                return idle >= 500;
            }));
            // Each answered unit left one cache entry behind.
            campaign::VerdictCache cache(so.dir + "/cache");
            hit = cache.sizeOnDisk() < config.units.size();
            if (hit) {
                ::kill(static_cast<pid_t>(worker), SIGKILL);
                EXPECT_TRUE(waitFor(10.0, [&] {
                    return procState(worker) == 'Z';
                }));
            }
            ::kill(static_cast<pid_t>(server->pid), SIGCONT);
        }

        if (reply.wait_for(std::chrono::seconds(10)) !=
            std::future_status::ready) {
            sub::kill(*server, SIGKILL); // unblocks the client
            reply.wait();
            FAIL() << "submission unanswered 10 s after its worker "
                      "died between two units";
        }
        ASSERT_TRUE(reply.get()) << submit_err;
        EXPECT_EQ(out, expected);
        if (hit) {
            std::string status;
            ASSERT_TRUE(serve::requestStatus(ep, &status, &err)) << err;
            EXPECT_NE(status.find("\"worker_deaths\": 1"),
                      std::string::npos)
                << status;
            EXPECT_NE(status.find("\"worker_restarts\": 1"),
                      std::string::npos)
                << status;
        }
        ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
        EXPECT_EQ(waitExit(*server), 0);
    }
    EXPECT_TRUE(hit) << "no attempt stopped the server with a unit "
                        "still to dispatch";
}

TEST(ServeTest, StuckWorkerIsKilledAtTheUnitTimeout)
{
    const campaign::CampaignConfig config = microConfig();
    const std::string expected = ephemeralBytes(config);
    const std::string dir = scratchDir("timeout");

    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    so.workers = 1;
    so.unit_timeout_seconds = 1;
    std::string err;
    std::optional<sub::Child> server = startServer(so, &err);
    ASSERT_TRUE(server.has_value()) << err;
    ServerGuard guard(*server);
    serve::Endpoint ep;
    ep.socket_path = so.socket_path;
    ASSERT_TRUE(serve::ping(ep, &err)) << err;

    // A stopped worker takes its first unit and never answers: only
    // the timeout can get the submission answered.
    const long worker = firstChild(server->pid);
    ASSERT_GT(worker, 0);
    ASSERT_EQ(::kill(static_cast<pid_t>(worker), SIGSTOP), 0);

    std::string out;
    ASSERT_TRUE(serve::submit(ep, campaign::manifestText(config), &out,
                              &err))
        << err;
    EXPECT_EQ(out, expected);

    std::string status;
    ASSERT_TRUE(serve::requestStatus(ep, &status, &err)) << err;
    EXPECT_NE(status.find("\"worker_deaths\": 1"), std::string::npos)
        << status;
    EXPECT_NE(status.find("\"worker_restarts\": 1"),
              std::string::npos)
        << status;
    // A re-dispatched unit adds one dispatch per extra attempt: the
    // kill hit a busy worker, so one unit was dispatched twice and
    // every unit completed once.
    EXPECT_EQ(statusCount(status, "units_completed"), 3) << status;
    EXPECT_EQ(statusCount(status, "units_dispatched"),
              statusCount(status, "units_completed") + 1)
        << status;

    ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
    EXPECT_EQ(waitExit(*server), 0);
}

TEST(ServeTest, UnitFailingEveryAttemptFailsItsSubmission)
{
    const std::string dir = scratchDir("attempts");
    campaign::CampaignConfig config;
    config.units = {{"file", dir + "/missing.pil"}};

    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    so.workers = 1;
    std::string err;
    std::optional<sub::Child> server = startServer(so, &err);
    ASSERT_TRUE(server.has_value()) << err;
    ServerGuard guard(*server);
    serve::Endpoint ep;
    ep.socket_path = so.socket_path;

    wire::Frame resp;
    ASSERT_TRUE(serve::request(
        ep, {"submit", campaign::manifestText(config)}, &resp, &err))
        << err;
    EXPECT_EQ(resp.type, "error");
    EXPECT_EQ(resp.payload.rfind("unit 0 failed after 3 attempts", 0),
              0u)
        << resp.payload;

    std::string status;
    ASSERT_TRUE(serve::requestStatus(ep, &status, &err)) << err;
    EXPECT_NE(status.find("\"units_dispatched\": 3,"),
              std::string::npos)
        << status;
    EXPECT_NE(status.find("\"worker_deaths\": 0,"), std::string::npos)
        << status;

    // The failed submission leaves the server serving.
    ASSERT_TRUE(serve::ping(ep, &err)) << err;
    ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
    EXPECT_EQ(waitExit(*server), 0);
}

TEST(ServeTest, SecondServerOnALiveSocketIsRefused)
{
    const std::string dir = scratchDir("live_socket");
    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    so.workers = 1;
    std::string err;
    std::optional<sub::Child> server = startServer(so, &err);
    ASSERT_TRUE(server.has_value()) << err;
    ServerGuard guard(*server);
    serve::Endpoint ep;
    ep.socket_path = so.socket_path;
    ASSERT_TRUE(serve::ping(ep, &err)) << err;

    // Taking the path over would leave the first server unreachable.
    {
        serve::ServeOptions second = so;
        second.dir = dir + "/state2";
        serve::Server intruder(second);
        std::string why;
        EXPECT_FALSE(intruder.start(&why));
        EXPECT_EQ(why, "socket " + so.socket_path + " is in use");
    }

    ASSERT_TRUE(serve::ping(ep, &err)) << err;
    ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
    EXPECT_EQ(waitExit(*server), 0);
}

TEST(ServeTest, RestartedServerRecomputesOnlyMissingUnits)
{
    const campaign::CampaignConfig config = microConfig();
    const std::string expected = ephemeralBytes(config);
    const std::string manifest = campaign::manifestText(config);
    const std::string dir = scratchDir("restart");
    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    so.workers = 2;
    serve::Endpoint ep;
    ep.socket_path = so.socket_path;
    std::string err;
    {
        std::optional<sub::Child> first = startServer(so, &err);
        ASSERT_TRUE(first.has_value()) << err;
        ServerGuard guard(*first);
        std::string out;
        ASSERT_TRUE(serve::submit(ep, manifest, &out, &err)) << err;
        EXPECT_EQ(out, expected);
        // A crash, not a shutdown: the socket file stays behind.
        sub::kill(*first, SIGKILL);
        waitExit(*first);
    }
    ASSERT_TRUE(fs::exists(so.socket_path));

    // One store never landed.
    std::vector<fs::path> entries;
    for (const fs::directory_entry &e :
         fs::directory_iterator(so.dir + "/cache"))
        entries.push_back(e.path());
    ASSERT_EQ(entries.size(), config.units.size());
    fs::remove(entries.front());

    std::optional<sub::Child> server = startServer(so, &err);
    ASSERT_TRUE(server.has_value()) << err;
    ServerGuard guard(*server);
    std::string out;
    ASSERT_TRUE(serve::submit(ep, manifest, &out, &err)) << err;
    EXPECT_EQ(out, expected);
    std::string status;
    ASSERT_TRUE(serve::requestStatus(ep, &status, &err)) << err;
    EXPECT_NE(status.find("\"units_dispatched\": 1,"),
              std::string::npos)
        << status;
    ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
    EXPECT_EQ(waitExit(*server), 0);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/** Resident set of @p pid in kB (VmRSS), or -1 if unreadable. */
long
residentKb(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    return -1;
}

TEST(ServeTest, FinishedSubmissionsReleaseTheirMemory)
{
    if (kSanitized)
        GTEST_SKIP() << "sanitizer allocators hold freed memory";
    const std::string dir = scratchDir("memory");
    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    so.workers = 2;
    std::string err;
    std::optional<sub::Child> server = startServer(so, &err);
    ASSERT_TRUE(server.has_value()) << err;
    ServerGuard guard(*server);
    serve::Endpoint ep;
    ep.socket_path = so.socket_path;

    // Distinct registry manifests: one `detection_seed` namespace
    // each, so every submission misses the cache.
    campaign::CampaignConfig config;
    config.render.json = true;
    config.render.classify_mode = true;
    config.units = campaign::registryUnits();
    const auto submitSeeds = [&](std::uint64_t from, std::uint64_t to) {
        for (std::uint64_t seed = from; seed < to; ++seed) {
            config.analysis.detection_seed = seed;
            std::string out;
            ASSERT_TRUE(serve::submit(ep, campaign::manifestText(config),
                                      &out, &err))
                << err;
        }
    };
    submitSeeds(1, 11); // warm-up: allocator pools, decode caches
    const long before = residentKb(server->pid);
    submitSeeds(11, 71);
    const long after = residentKb(server->pid);
    ASSERT_GT(before, 0);
    EXPECT_LT(after - before, 2048)
        << "server VmRSS " << before << " -> " << after << " kB";

    ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
    EXPECT_EQ(waitExit(*server), 0);
}

TEST(ServeTest, MalformedManifestGetsErrorFrame)
{
    const std::string dir = scratchDir("badmanifest");
    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    so.workers = 1;
    std::string err;
    std::optional<sub::Child> server = startServer(so, &err);
    ASSERT_TRUE(server.has_value()) << err;
    ServerGuard guard(*server);

    serve::Endpoint ep;
    ep.socket_path = so.socket_path;
    std::string out;
    EXPECT_FALSE(serve::submit(ep, "not a manifest\n", &out, &err));
    EXPECT_NE(err.find("bad manifest"), std::string::npos) << err;

    // The CLI refuses `--sym-input n=9..0`; a manifest naming that
    // range is refused before any unit is dispatched, so no worker
    // dies on the empty domain of ibuf's input `n`.
    campaign::CampaignConfig config;
    config.units = {{"workload", "ibuf"}};
    rt::SymInputSpec empty;
    empty.name = "n";
    empty.has_range = true;
    empty.lo = 9;
    empty.hi = 0;
    config.analysis.sym_inputs.push_back(empty);
    const std::string manifest = campaign::manifestText(config);
    ASSERT_NE(manifest.find("\nsym_input 1 9 0 n\n"), std::string::npos);
    EXPECT_FALSE(serve::submit(ep, manifest, &out, &err));
    EXPECT_EQ(err.rfind("bad manifest", 0), 0u) << err;
    std::string status;
    ASSERT_TRUE(serve::requestStatus(ep, &status, &err)) << err;
    EXPECT_NE(status.find("\"units_dispatched\": 0,"), std::string::npos)
        << status;
    EXPECT_NE(status.find("\"worker_deaths\": 0,"), std::string::npos)
        << status;

    wire::Frame resp;
    ASSERT_TRUE(serve::request(ep, {"bogus", ""}, &resp, &err))
        << err;
    EXPECT_EQ(resp.type, "error");

    ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
    EXPECT_EQ(waitExit(*server), 0);
}

TEST(ServeTest, RawGarbageClosesTheConnection)
{
    const std::string dir = scratchDir("garbage");
    serve::ServeOptions so;
    so.dir = dir + "/state";
    so.socket_path = dir + "/sock";
    so.workers = 1;
    std::string err;
    std::optional<sub::Child> server = startServer(so, &err);
    ASSERT_TRUE(server.has_value()) << err;
    ServerGuard guard(*server);
    serve::Endpoint ep;
    ep.socket_path = so.socket_path;
    ASSERT_TRUE(serve::ping(ep, &err)) << err;

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, so.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof addr),
              0);
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(sub::writeAll(fd, junk, sizeof junk - 1));
    // The server answers with an error frame (best effort) and
    // closes; either way the stream must end.
    char buf[4096];
    long r;
    std::string got;
    while ((r = sub::readSome(fd, buf, sizeof buf)) > 0)
        got.append(buf, static_cast<std::size_t>(r));
    EXPECT_EQ(r, 0);
    EXPECT_NE(got.find("error"), std::string::npos) << got;
    ::close(fd);

    // And the server is still healthy afterwards.
    ASSERT_TRUE(serve::ping(ep, &err)) << err;
    ASSERT_TRUE(serve::requestShutdown(ep, &err)) << err;
    EXPECT_EQ(waitExit(*server), 0);
}

#endif // _WIN32

} // namespace
} // namespace portend
