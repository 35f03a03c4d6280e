/**
 * @file
 * `portend serve`: the multi-process sharded triage server.
 *
 * A long-running daemon that accepts campaign submissions over a
 * Unix-domain (or loopback TCP) socket and shards their units across
 * a pool of forked worker *processes*. Each worker runs the PR 9
 * campaign engine as its per-process tier (campaign::executeUnit
 * against the server's shared on-disk VerdictCache); the server owns
 * the event loop, the per-campaign journal (single writer), and
 * worker supervision.
 *
 * Crash-safety contract (the resume contract, lifted to processes):
 *
 *  - a worker stores a unit's verdict in the shared cache *before*
 *    reporting `done`; the server journals the unit only after
 *    re-probing that entry. A worker SIGKILLed mid-unit therefore
 *    left nothing half-trusted — its claimed-but-unjournaled units
 *    are simply re-dispatched to another worker;
 *  - equal campaign signature implies equal verdict bytes (PR 9), so
 *    re-dispatch, cross-campaign dedup, and server restarts all
 *    merge to bytes identical to a single-process `campaign run`;
 *  - the journal is written by the server alone, one fsync'd line
 *    per completion, so a killed *server* resumes the same way a
 *    killed campaign always has.
 *
 * Layering: serve sits above campaign (it is another driver of the
 * campaign phases) and uses support/wire + support/subproc for the
 * protocol and process plumbing. Nothing below knows serve exists.
 */

#ifndef PORTEND_SERVE_SERVER_H
#define PORTEND_SERVE_SERVER_H

#include <csignal>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "support/observe.h"
#include "support/subproc.h"
#include "support/wire.h"

namespace portend::serve {

/** Everything `portend serve` is parameterized by. */
struct ServeOptions
{
    std::string dir;         ///< state root: `<dir>/cache`, `<dir>/campaigns/<id>`
    std::string socket_path; ///< Unix socket path ("" = TCP instead)
    int port = 0;            ///< loopback TCP port (0 = ephemeral)
    int workers = 2;         ///< worker processes to pre-fork

    int max_worker_restarts = 16; ///< respawn budget across the run
    int max_unit_attempts = 3;    ///< dispatch attempts per unit
    double unit_timeout_seconds = 0.0; ///< kill a worker stuck on one
                                       ///< unit this long (0 = off)

    /** Fault injection for the crash-recovery tests: after this many
     *  unit completions, SIGKILL one busy worker (once). -1 = off. */
    int kill_worker_after = -1;

    /** Return from loop() after answering this many submissions
     *  (bounds server lifetime in tests/benches). -1 = serve until a
     *  shutdown request. */
    int max_submissions = -1;
};

/**
 * The server: bind, pre-fork, serve. Single-threaded by design —
 * fork safety of the worker pool depends on it.
 */
class Server
{
  public:
    explicit Server(ServeOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the socket and pre-fork the worker pool. */
    bool start(std::string *error = nullptr);

    /** Event loop; returns 0 on clean shutdown (shutdown request,
     *  max_submissions reached, or stop()), 1 on a fatal error. */
    int loop();

    /** Request loop() exit from a signal handler (async-safe). */
    void stop() { stop_requested_ = 1; }

    /** The TCP port actually bound (ephemeral-port tests). */
    int boundPort() const { return bound_port_; }

    /** Worker-process entry point over its server channel fd. */
    static int workerMain(int fd);

  private:
    struct Worker
    {
        sub::Child child;
        wire::FrameReader reader;
        bool busy = false;
        int submission = -1;     ///< index into submissions_
        std::size_t unit = 0;    ///< in-flight unit index
        std::uint64_t deadline_ns = 0; ///< 0 = no timeout armed
        std::uint64_t gen = 0; ///< respawn count (fd-reuse guard)
    };

    struct ClientConn
    {
        int fd = -1;
        wire::FrameReader reader;
    };

    struct Submission
    {
        std::string id;       ///< 16-hex manifest hash
        std::string dir;      ///< campaign directory
        std::unique_ptr<campaign::Campaign> campaign;
        campaign::CampaignResult result;
        std::deque<std::size_t> pending;
        std::map<std::size_t, int> attempts;
        int in_flight = 0;
        int client_fd = -1; ///< -1 once the client went away
        bool done = false;
        std::string last_error; ///< most recent worker fail message
    };

    bool bindSocket(std::string *error);
    bool spawnWorker(Worker &w, std::string *error);
    void respond(int fd, const wire::Frame &frame);
    void closeClient(int fd);
    void handleClientFrame(ClientConn &c, const wire::Frame &f);
    void handleSubmit(ClientConn &c, const std::string &manifest);
    void handleWorkerFrame(std::size_t wi, const wire::Frame &f);
    void handleWorkerDeath(std::size_t wi, const char *why);
    void requeueUnit(Submission &sub, std::size_t unit);
    void failSubmission(Submission &sub, const std::string &why);
    void maybeFinishSubmission(Submission &sub);
    void dispatchWork();
    void maybeInjectKill();
    std::string statusJson() const;

    /** Count one @p c event here and on the process collector. */
    void bump(obs::Counter c);

    ServeOptions opts_;
    std::string cache_dir_;
    int listen_fd_ = -1;
    int bound_port_ = 0;
    std::vector<Worker> workers_;
    std::vector<ClientConn> clients_;
    std::vector<Submission> submissions_;
    obs::MetricsShard counts_; ///< the serve.* counters `status` reports
    bool shutdown_ = false;
    volatile std::sig_atomic_t stop_requested_ = 0;
    bool kill_injected_ = false;
    int answered_ = 0;
};

} // namespace portend::serve

#endif // PORTEND_SERVE_SERVER_H
