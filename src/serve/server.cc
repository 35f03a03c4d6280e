#include "serve/server.h"

#ifndef _WIN32

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/clock.h"
#include "support/hash.h"
#include "support/str.h"

namespace portend::serve {

namespace fs = std::filesystem;

namespace {

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

void
workerEvent(long pid, const char *what)
{
    if (!obs::progress())
        return;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "{\"event\": \"serve_worker\", \"pid\": %ld, "
                  "\"what\": \"%s\"}",
                  pid, what);
    obs::progressLine(buf);
}

void
unitEvent(const std::string &id, std::size_t unit, long pid,
          const char *what)
{
    if (!obs::progress())
        return;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "{\"event\": \"serve_unit\", \"campaign\": \"%s\", "
                  "\"unit\": %zu, \"pid\": %ld, \"what\": \"%s\"}",
                  id.c_str(), unit, pid, what);
    obs::progressLine(buf);
}

void
submissionEvent(const std::string &id, std::size_t units,
                std::size_t pending, const char *what)
{
    if (!obs::progress())
        return;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "{\"event\": \"serve_submission\", "
                  "\"campaign\": \"%s\", \"units\": %zu, "
                  "\"pending\": %zu, \"what\": \"%s\"}",
                  id.c_str(), units, pending, what);
    obs::progressLine(buf);
}

/** Campaign id: content hash of the manifest text, so the same
 *  submission always lands in the same campaign directory (and a
 *  resubmission resumes instead of re-running). */
std::string
campaignId(const std::string &manifest)
{
    return campaign::hex16(fnv1a(manifest));
}

} // namespace

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

int
Server::workerMain(int fd)
{
    wire::FrameReader reader;
    // Campaigns stay open across units: the manifest parse and the
    // cache's in-memory layer amortize over every unit this worker
    // runs for the same campaign.
    std::map<std::string, campaign::Campaign> campaigns;
    char buf[4096];
    for (;;) {
        std::optional<wire::Frame> f;
        while (!(f = reader.next())) {
            if (reader.failed())
                return 1;
            const long r = sub::readSome(fd, buf, sizeof buf);
            if (r <= 0)
                return 0; // server went away: clean exit
            reader.feed(buf, static_cast<std::size_t>(r));
        }
        if (f->type == "bye")
            return 0;
        if (f->type != "unit")
            return 1;

        // Payload: "<campaign_dir>\n<cache_dir>\n<index>\n".
        std::istringstream is(f->payload);
        std::string dir, cache_dir, index_s;
        if (!std::getline(is, dir) || !std::getline(is, cache_dir) ||
            !std::getline(is, index_s))
            return 1;
        std::int64_t index = -1;
        if (!parseI64(index_s, &index) || index < 0)
            return 1;

        wire::Frame out;
        std::string err;
        auto it = campaigns.find(dir);
        if (it == campaigns.end()) {
            std::optional<campaign::Campaign> camp =
                campaign::Campaign::open(dir, &err, cache_dir);
            if (camp)
                it = campaigns.emplace(dir, std::move(*camp)).first;
        }
        if (it == campaigns.end()) {
            out = {"fail", index_s + " " + err};
        } else {
            campaign::UnitResult u;
            std::string store_err;
            if (!campaign::executeUnit(it->second.config(),
                                       static_cast<std::size_t>(index),
                                       it->second.cache(), &u, &err,
                                       &store_err)) {
                out = {"fail", index_s + " " + err};
            } else if (!store_err.empty()) {
                // The verdict never reached the shared disk cache, so
                // the server's re-probe would miss: report failure
                // rather than a `done` the server cannot trust.
                out = {"fail", index_s + " " + store_err};
            } else {
                const bool cached =
                    u.source == campaign::UnitSource::CacheHit;
                out = {"done", index_s + " " + u.sig +
                                   (cached ? " 1" : " 0")};
            }
        }
        const std::string bytes = wire::encodeFrame(out);
        if (!sub::writeAll(fd, bytes.data(), bytes.size()))
            return 0;
    }
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

Server::Server(ServeOptions opts) : opts_(std::move(opts)) {}

Server::~Server()
{
    for (Worker &w : workers_)
        sub::terminate(w.child, 0.5);
    for (ClientConn &c : clients_)
        if (c.fd >= 0)
            ::close(c.fd);
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
    if (!opts_.socket_path.empty())
        ::unlink(opts_.socket_path.c_str());
}

bool
Server::start(std::string *error)
{
    if (opts_.workers < 1)
        return fail(error, "serve needs at least one worker");
    if (opts_.dir.empty())
        return fail(error, "serve needs a state directory");
    std::error_code ec;
    cache_dir_ = (fs::path(opts_.dir) / "cache").string();
    fs::create_directories(cache_dir_, ec);
    if (ec)
        return fail(error, "cannot create " + cache_dir_ + ": " +
                               ec.message());
    fs::create_directories(fs::path(opts_.dir) / "campaigns", ec);
    if (ec)
        return fail(error, "cannot create campaigns dir: " +
                               ec.message());
    // Client disconnects must surface as EPIPE write errors, not
    // process death.
    ::signal(SIGPIPE, SIG_IGN);
    // Pre-fork before binding so the initial pool never inherits the
    // listen socket (respawned workers close inherited fds in
    // spawnWorker).
    workers_.resize(static_cast<std::size_t>(opts_.workers));
    for (Worker &w : workers_)
        if (!spawnWorker(w, error))
            return false;
    return bindSocket(error);
}

bool
Server::bindSocket(std::string *error)
{
    if (!opts_.socket_path.empty()) {
        sockaddr_un addr{};
        if (opts_.socket_path.size() >= sizeof(addr.sun_path))
            return fail(error, "socket path too long: " +
                                   opts_.socket_path);
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            return fail(error, std::string("socket: ") +
                                   std::strerror(errno));
        ::unlink(opts_.socket_path.c_str());
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listen_fd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof addr) != 0)
            return fail(error, "bind " + opts_.socket_path + ": " +
                                   std::strerror(errno));
    } else {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            return fail(error, std::string("socket: ") +
                                   std::strerror(errno));
        int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(opts_.port));
        if (::bind(listen_fd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof addr) != 0)
            return fail(error, "bind port " +
                                   std::to_string(opts_.port) + ": " +
                                   std::strerror(errno));
        socklen_t len = sizeof addr;
        if (::getsockname(listen_fd_,
                          reinterpret_cast<sockaddr *>(&addr),
                          &len) == 0)
            bound_port_ = ntohs(addr.sin_port);
    }
    if (::listen(listen_fd_, 16) != 0)
        return fail(error, std::string("listen: ") +
                               std::strerror(errno));
    return true;
}

bool
Server::spawnWorker(Worker &w, std::string *error)
{
    // The child must not hold server fds open past the server's own
    // lifetime (a worker owning the listen socket would leave ghost
    // accepts behind a dead server).
    std::vector<int> inherited;
    inherited.push_back(listen_fd_);
    for (const ClientConn &c : clients_)
        inherited.push_back(c.fd);
    for (const Worker &other : workers_)
        inherited.push_back(other.child.fd);
    std::optional<sub::Child> child = sub::spawn(
        [inherited](int fd) {
            for (int e : inherited)
                if (e >= 0)
                    ::close(e);
            return workerMain(fd);
        },
        error);
    if (!child)
        return false;
    w.child = *child;
    w.reader = wire::FrameReader();
    w.busy = false;
    w.submission = -1;
    w.unit = 0;
    w.deadline_ns = 0;
    w.gen += 1;
    workerEvent(w.child.pid, "spawn");
    return true;
}

// ---------------------------------------------------------------------------
// Responses and client bookkeeping
// ---------------------------------------------------------------------------

void
Server::respond(int fd, const wire::Frame &frame)
{
    if (fd < 0)
        return;
    const std::string bytes = wire::encodeFrame(frame);
    sub::writeAll(fd, bytes.data(), bytes.size()); // best effort
}

void
Server::closeClient(int fd)
{
    if (fd < 0)
        return;
    // Any submission still pointing at this fd loses its reply
    // channel (the work itself continues: the journal + cache keep
    // the result for a resubmission).
    for (Submission &s : submissions_)
        if (s.client_fd == fd)
            s.client_fd = -1;
    for (ClientConn &c : clients_)
        if (c.fd == fd)
            c.fd = -1; // swept after the poll-event pass
    ::close(fd);
}

void
Server::handleClientFrame(ClientConn &c, const wire::Frame &f)
{
    if (c.fd < 0)
        return;
    bump(obs::Counter::ServeRequests);
    if (f.type == "ping") {
        respond(c.fd, {"pong", ""});
        closeClient(c.fd);
    } else if (f.type == "status") {
        respond(c.fd, {"status_ok", statusJson()});
        closeClient(c.fd);
    } else if (f.type == "shutdown") {
        respond(c.fd, {"bye", ""});
        closeClient(c.fd);
        shutdown_ = true;
    } else if (f.type == "submit") {
        handleSubmit(c, f.payload);
    } else {
        respond(c.fd, {"error", "unknown request type: " + f.type});
        closeClient(c.fd);
    }
}

void
Server::handleSubmit(ClientConn &c, const std::string &manifest)
{
    bump(obs::Counter::ServeSubmissions);
    std::string err;
    std::optional<campaign::CampaignConfig> config =
        campaign::parseManifest(manifest, &err);
    if (!config) {
        respond(c.fd, {"error", "bad manifest: " + err});
        closeClient(c.fd);
        return;
    }
    const std::string id = campaignId(manifest);
    const std::string dir =
        (fs::path(opts_.dir) / "campaigns" / id).string();
    std::optional<campaign::Campaign> camp =
        campaign::Campaign::create(dir, std::move(*config), &err,
                                   cache_dir_);
    if (!camp) {
        respond(c.fd, {"error", "cannot open campaign: " + err});
        closeClient(c.fd);
        return;
    }
    Submission sub;
    sub.id = id;
    sub.dir = dir;
    sub.campaign =
        std::make_unique<campaign::Campaign>(std::move(*camp));
    if (!sub.campaign->openJournal(&err)) {
        respond(c.fd, {"error", "cannot open journal: " + err});
        closeClient(c.fd);
        return;
    }
    sub.result = sub.campaign->replayJournal();
    for (std::size_t i = 0; i < sub.result.units.size(); ++i)
        if (sub.result.units[i].source ==
            campaign::UnitSource::Pending)
            sub.pending.push_back(i);
    sub.client_fd = c.fd;
    submissionEvent(id, sub.result.units.size(), sub.pending.size(),
                    "accepted");
    submissions_.push_back(std::move(sub));
    maybeFinishSubmission(submissions_.back());
}

// ---------------------------------------------------------------------------
// Worker traffic
// ---------------------------------------------------------------------------

void
Server::handleWorkerFrame(std::size_t wi, const wire::Frame &f)
{
    Worker &w = workers_[wi];
    if (!w.busy || (f.type != "done" && f.type != "fail")) {
        // A frame we did not ask for: the worker is off-protocol and
        // cannot be trusted with further units.
        sub::kill(w.child, SIGKILL);
        handleWorkerDeath(wi, "protocol");
        return;
    }
    std::istringstream is(f.payload);
    std::string index_s;
    is >> index_s;
    std::int64_t index = -1;
    if (!parseI64(index_s, &index) ||
        static_cast<std::size_t>(index) != w.unit) {
        sub::kill(w.child, SIGKILL);
        handleWorkerDeath(wi, "protocol");
        return;
    }
    Submission &sub = submissions_[static_cast<std::size_t>(
        w.submission)];
    w.busy = false;
    w.deadline_ns = 0;
    sub.in_flight -= 1;
    if (sub.done)
        return; // late frame for an already-failed submission

    if (f.type == "fail") {
        std::string msg;
        std::getline(is, msg);
        if (!msg.empty() && msg.front() == ' ')
            msg.erase(0, 1);
        sub.last_error = msg;
        unitEvent(sub.id, w.unit, w.child.pid, "fail");
        requeueUnit(sub, w.unit);
        return;
    }

    std::string sig, cached_s;
    is >> sig >> cached_s;
    const bool cached = cached_s == "1";
    bump(obs::Counter::ServeUnitsCompleted);
    if (cached)
        bump(obs::Counter::ServeUnitsCached);
    unitEvent(sub.id, w.unit, w.child.pid,
              cached ? "done_cached" : "done");
    std::string err;
    if (!sub.campaign->recordCompletion(sub.result, w.unit, sig,
                                        cached, &err)) {
        // The re-probe missed: whatever the worker stored is not on
        // disk (or the signature is bogus). Run the unit again.
        sub.last_error = err;
        requeueUnit(sub, w.unit);
        return;
    }
    maybeFinishSubmission(sub);
}

void
Server::handleWorkerDeath(std::size_t wi, const char *why)
{
    Worker &w = workers_[wi];
    bump(obs::Counter::ServeWorkerDeaths);
    workerEvent(w.child.pid, why);
    sub::closeChannel(w.child);
    sub::kill(w.child, SIGKILL); // no-op if already gone
    while (!sub::reap(w.child))
        ::usleep(1000); // prompt post-SIGKILL
    w.reader = wire::FrameReader();
    if (w.busy) {
        Submission &sub = submissions_[static_cast<std::size_t>(
            w.submission)];
        w.busy = false;
        w.deadline_ns = 0;
        sub.in_flight -= 1;
        if (!sub.done) {
            // The claimed-but-unjournaled unit: nothing durable was
            // written for it (journal records follow cache entries,
            // and the server never journaled it), so a plain
            // re-dispatch is exact recovery.
            unitEvent(sub.id, w.unit, -1, "redispatch");
            requeueUnit(sub, w.unit);
        }
    }
    if (counts_.counter(obs::Counter::ServeWorkerRestarts) <
        static_cast<std::uint64_t>(opts_.max_worker_restarts)) {
        std::string err;
        if (spawnWorker(w, &err)) {
            bump(obs::Counter::ServeWorkerRestarts);
            workerEvent(w.child.pid, "restart");
            return;
        }
    }
    // Pool exhausted: fail anything that still needs workers.
    const bool any_alive = std::any_of(
        workers_.begin(), workers_.end(),
        [](const Worker &x) { return x.child.running(); });
    if (!any_alive)
        for (Submission &s : submissions_)
            if (!s.done)
                failSubmission(s, "no workers left (restart budget "
                                  "exhausted)");
}

void
Server::requeueUnit(Submission &sub, std::size_t unit)
{
    // Attempts are charged (and the budget enforced) at dispatch
    // time, so a requeue is just a re-enqueue.
    sub.pending.push_back(unit);
}

void
Server::failSubmission(Submission &sub, const std::string &why)
{
    if (sub.done)
        return;
    sub.done = true;
    sub.pending.clear();
    sub.campaign->closeJournal();
    submissionEvent(sub.id, sub.result.units.size(), 0, "failed");
    if (sub.client_fd >= 0) {
        const int fd = sub.client_fd;
        respond(fd, {"error", why});
        closeClient(fd);
    }
    answered_ += 1;
}

void
Server::maybeFinishSubmission(Submission &sub)
{
    if (sub.done || !sub.pending.empty() || sub.in_flight > 0)
        return;
    if (!sub.result.complete()) {
        failSubmission(sub, "internal: units lost without verdicts");
        return;
    }
    sub.campaign->finalize(sub.result);
    sub.campaign->closeJournal();
    sub.done = true;
    submissionEvent(sub.id, sub.result.units.size(), 0, "complete");
    if (sub.client_fd >= 0) {
        const int fd = sub.client_fd;
        respond(fd, {"result",
                     sub.result.mergedOutput(
                         sub.campaign->config().render.json)});
        closeClient(fd);
    }
    answered_ += 1;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void
Server::dispatchWork()
{
    // A slot is advanced past only once its worker is busy or gone:
    // a failed submission leaves it free for the next one, and a
    // worker respawned after a failed write must get the unit now,
    // since nothing else would wake poll() for it.
    for (std::size_t wi = 0; wi < workers_.size();) {
        Worker &w = workers_[wi];
        if (w.busy || !w.child.running() || w.child.fd < 0) {
            ++wi;
            continue;
        }
        // First submission with pending work, in arrival order.
        Submission *sub = nullptr;
        int si = -1;
        for (std::size_t s = 0; s < submissions_.size(); ++s) {
            if (!submissions_[s].done &&
                !submissions_[s].pending.empty()) {
                sub = &submissions_[s];
                si = static_cast<int>(s);
                break;
            }
        }
        if (!sub)
            break;
        const std::size_t unit = sub->pending.front();
        sub->pending.pop_front();
        const int attempt = ++sub->attempts[unit];
        if (attempt > opts_.max_unit_attempts) {
            std::string why = "unit " + std::to_string(unit) +
                              " failed after " +
                              std::to_string(
                                  opts_.max_unit_attempts) +
                              " attempts";
            if (!sub->last_error.empty())
                why += ": " + sub->last_error;
            failSubmission(*sub, why);
            continue;
        }
        const std::string payload = sub->dir + "\n" + cache_dir_ +
                                    "\n" + std::to_string(unit) +
                                    "\n";
        const std::string bytes =
            wire::encodeFrame({"unit", payload});
        if (!sub::writeAll(w.child.fd, bytes.data(), bytes.size())) {
            // Dead at dispatch: undo the claim, recycle the worker.
            sub->pending.push_front(unit);
            sub->attempts[unit] -= 1;
            handleWorkerDeath(wi, "write");
            continue;
        }
        w.busy = true;
        w.submission = si;
        w.unit = unit;
        if (opts_.unit_timeout_seconds > 0)
            w.deadline_ns =
                steadyNanos() +
                static_cast<std::uint64_t>(
                    opts_.unit_timeout_seconds * 1e9);
        sub->in_flight += 1;
        bump(obs::Counter::ServeUnitsDispatched);
        unitEvent(sub->id, unit, w.child.pid, "dispatch");
    }
    maybeInjectKill();
}

void
Server::maybeInjectKill()
{
    if (opts_.kill_worker_after < 0 || kill_injected_)
        return;
    if (counts_.counter(obs::Counter::ServeUnitsCompleted) <
        static_cast<std::uint64_t>(opts_.kill_worker_after))
        return;
    for (Worker &w : workers_) {
        if (w.busy && w.child.running()) {
            kill_injected_ = true;
            workerEvent(w.child.pid, "kill_injected");
            sub::kill(w.child, SIGKILL);
            // Death (and the unit's re-dispatch) surfaces through
            // the event loop as channel EOF.
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void
Server::bump(obs::Counter c)
{
    counts_.add(c, 1);
    if (obs::Collector *col = obs::collector())
        col->add(c, 1);
}

std::string
Server::statusJson() const
{
    std::size_t alive = 0, busy = 0, active = 0;
    for (const Worker &w : workers_) {
        if (w.child.running())
            alive += 1;
        if (w.busy)
            busy += 1;
    }
    for (const Submission &s : submissions_)
        if (!s.done)
            active += 1;
    using obs::Counter;
    const auto n = [this](Counter c) { return counts_.counter(c); };
    std::ostringstream os;
    os << "{\"workers\": " << opts_.workers
       << ", \"alive\": " << alive << ", \"busy\": " << busy
       << ", \"requests\": " << n(Counter::ServeRequests)
       << ", \"submissions\": " << n(Counter::ServeSubmissions)
       << ", \"active\": " << active
       << ", \"units_dispatched\": " << n(Counter::ServeUnitsDispatched)
       << ", \"units_completed\": " << n(Counter::ServeUnitsCompleted)
       << ", \"units_cached\": " << n(Counter::ServeUnitsCached)
       << ", \"worker_deaths\": " << n(Counter::ServeWorkerDeaths)
       << ", \"worker_restarts\": " << n(Counter::ServeWorkerRestarts)
       << "}";
    return os.str();
}

int
Server::loop()
{
    if (listen_fd_ < 0)
        return 1;
    while (!shutdown_ && !stop_requested_) {
        if (opts_.max_submissions >= 0 &&
            answered_ >= opts_.max_submissions)
            break;

        std::vector<pollfd> fds;
        std::vector<int> client_of(1, -1), worker_of(1, -1);
        std::vector<std::uint64_t> gen_of(1, 0);
        fds.push_back({listen_fd_, POLLIN, 0});
        for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
            if (clients_[ci].fd < 0)
                continue;
            fds.push_back({clients_[ci].fd, POLLIN, 0});
            client_of.push_back(static_cast<int>(ci));
            worker_of.push_back(-1);
            gen_of.push_back(0);
        }
        for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
            if (workers_[wi].child.fd < 0)
                continue;
            fds.push_back({workers_[wi].child.fd, POLLIN, 0});
            client_of.push_back(-1);
            worker_of.push_back(static_cast<int>(wi));
            gen_of.push_back(workers_[wi].gen);
        }

        int timeout_ms = -1;
        if (opts_.unit_timeout_seconds > 0) {
            const std::uint64_t now = steadyNanos();
            for (const Worker &w : workers_) {
                if (!w.busy || w.deadline_ns == 0)
                    continue;
                const std::uint64_t left =
                    w.deadline_ns > now ? w.deadline_ns - now : 0;
                const int ms =
                    static_cast<int>(left / 1000000u) + 1;
                if (timeout_ms < 0 || ms < timeout_ms)
                    timeout_ms = ms;
            }
        }

        const int rc = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()),
                              timeout_ms);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return 1;
        }

        // Stuck-unit timeouts first: a SIGKILLed worker's channel
        // EOF would otherwise wait one more poll round.
        if (opts_.unit_timeout_seconds > 0) {
            const std::uint64_t now = steadyNanos();
            for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
                Worker &w = workers_[wi];
                if (w.busy && w.deadline_ns != 0 &&
                    now >= w.deadline_ns) {
                    sub::kill(w.child, SIGKILL);
                    handleWorkerDeath(wi, "timeout");
                }
            }
        }

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            if (i == 0) {
                const int fd = ::accept(listen_fd_, nullptr, nullptr);
                if (fd >= 0) {
                    ClientConn conn;
                    conn.fd = fd;
                    clients_.push_back(std::move(conn));
                }
                continue;
            }
            if (client_of[i] >= 0) {
                ClientConn &c = clients_[static_cast<std::size_t>(
                    client_of[i])];
                if (c.fd < 0 || c.fd != fds[i].fd)
                    continue; // closed earlier this pass
                char buf[65536];
                const long r = sub::readSome(c.fd, buf, sizeof buf);
                if (r <= 0) {
                    closeClient(c.fd);
                    continue;
                }
                c.reader.feed(buf, static_cast<std::size_t>(r));
                std::optional<wire::Frame> f;
                while (c.fd >= 0 && (f = c.reader.next()))
                    handleClientFrame(c, *f);
                if (c.fd >= 0 && c.reader.failed()) {
                    respond(c.fd, {"error", "protocol error: " +
                                                c.reader.error()});
                    closeClient(c.fd);
                }
                continue;
            }
            const std::size_t wi =
                static_cast<std::size_t>(worker_of[i]);
            Worker &w = workers_[wi];
            // gen guards fd reuse: a worker respawned earlier this
            // pass may have been handed the dead one's fd number.
            if (w.child.fd < 0 || w.child.fd != fds[i].fd ||
                w.gen != gen_of[i])
                continue;
            char buf[4096];
            const long r = sub::readSome(w.child.fd, buf, sizeof buf);
            if (r <= 0) {
                handleWorkerDeath(wi, "death");
                continue;
            }
            w.reader.feed(buf, static_cast<std::size_t>(r));
            std::optional<wire::Frame> f;
            while (w.child.fd >= 0 && !w.reader.failed() &&
                   (f = w.reader.next()))
                handleWorkerFrame(wi, *f);
            if (w.child.fd >= 0 && w.reader.failed()) {
                sub::kill(w.child, SIGKILL);
                handleWorkerDeath(wi, "protocol");
            }
        }

        // Sweep closed client slots.
        clients_.erase(
            std::remove_if(clients_.begin(), clients_.end(),
                           [](const ClientConn &c) {
                               return c.fd < 0;
                           }),
            clients_.end());

        dispatchWork();
    }
    return 0;
}

} // namespace portend::serve

#else // _WIN32

namespace portend::serve {

Server::Server(ServeOptions opts) : opts_(std::move(opts)) {}
Server::~Server() = default;

bool
Server::start(std::string *error)
{
    if (error)
        *error = "portend serve is not supported on Windows";
    return false;
}

int Server::loop() { return 1; }
int Server::workerMain(int) { return 1; }

bool Server::bindSocket(std::string *) { return false; }
bool Server::spawnWorker(Worker &, std::string *) { return false; }
void Server::respond(int, const wire::Frame &) {}
void Server::closeClient(int) {}
void Server::handleClientFrame(ClientConn &, const wire::Frame &) {}
void Server::handleSubmit(ClientConn &, const std::string &) {}
void Server::handleWorkerFrame(std::size_t, const wire::Frame &) {}
void Server::handleWorkerDeath(std::size_t, const char *) {}
void Server::requeueUnit(Submission &, std::size_t) {}
void Server::failSubmission(Submission &, const std::string &) {}
void Server::maybeFinishSubmission(Submission &) {}
void Server::dispatchWork() {}
void Server::maybeInjectKill() {}
std::string Server::statusJson() const { return "{}"; }
void Server::bump(obs::Counter) {}

} // namespace portend::serve

#endif // _WIN32
