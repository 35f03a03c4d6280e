#include "serve/client.h"

#ifndef _WIN32

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/clock.h"
#include "support/subproc.h"

namespace portend::serve {

namespace {

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

/** Connect with retry: the server may still be binding. */
int
connectWithRetry(const Endpoint &ep, std::string *error)
{
    sockaddr_un addr{};
    if (ep.socket_path.size() >= sizeof(addr.sun_path)) {
        fail(error, "socket path too long: " + ep.socket_path);
        return -1;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const std::uint64_t start = steadyNanos();
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        const int err = errno;
        if (fd >= 0)
            ::close(fd);
        const bool retryable = err == ECONNREFUSED ||
                               err == ENOENT || err == EAGAIN;
        if (!retryable || steadySeconds(start, steadyNanos()) >
                              kConnectTimeoutSeconds) {
            fail(error, std::string("connect: ") + std::strerror(err));
            return -1;
        }
        ::usleep(50 * 1000);
    }
}

} // namespace

bool
request(const Endpoint &ep, const wire::Frame &req,
        wire::Frame *resp, std::string *error)
{
    const int fd = connectWithRetry(ep, error);
    if (fd < 0)
        return false;
    const std::string bytes = wire::encodeFrame(req);
    if (!sub::writeAll(fd, bytes.data(), bytes.size())) {
        ::close(fd);
        return fail(error, std::string("send: ") +
                               std::strerror(errno));
    }
    wire::FrameReader reader;
    char buf[65536];
    for (;;) {
        if (std::optional<wire::Frame> f = reader.next()) {
            *resp = std::move(*f);
            ::close(fd);
            return true;
        }
        if (reader.failed()) {
            ::close(fd);
            return fail(error,
                        "protocol error: " + reader.error());
        }
        const long r = sub::readSome(fd, buf, sizeof buf);
        if (r < 0) {
            ::close(fd);
            return fail(error, std::string("recv: ") +
                                   std::strerror(errno));
        }
        if (r == 0) {
            ::close(fd);
            return fail(error,
                        "server closed the connection without a "
                        "response");
        }
        reader.feed(buf, static_cast<std::size_t>(r));
    }
}

bool
submit(const Endpoint &ep, const std::string &manifest,
       std::string *output, std::string *error)
{
    wire::Frame resp;
    if (!request(ep, {"submit", manifest}, &resp, error))
        return false;
    if (resp.type == "result") {
        if (output)
            *output = std::move(resp.payload);
        return true;
    }
    if (resp.type == "error")
        return fail(error, resp.payload);
    return fail(error, "unexpected response type: " + resp.type);
}

bool
requestStatus(const Endpoint &ep, std::string *json,
              std::string *error)
{
    wire::Frame resp;
    if (!request(ep, {"status", ""}, &resp, error))
        return false;
    if (resp.type != "status_ok")
        return fail(error, resp.type == "error"
                               ? resp.payload
                               : "unexpected response type: " +
                                     resp.type);
    if (json)
        *json = std::move(resp.payload);
    return true;
}

bool
requestShutdown(const Endpoint &ep, std::string *error)
{
    wire::Frame resp;
    if (!request(ep, {"shutdown", ""}, &resp, error))
        return false;
    if (resp.type != "bye")
        return fail(error,
                    "unexpected response type: " + resp.type);
    return true;
}

bool
ping(const Endpoint &ep, std::string *error)
{
    wire::Frame resp;
    if (!request(ep, {"ping", ""}, &resp, error))
        return false;
    if (resp.type != "pong")
        return fail(error,
                    "unexpected response type: " + resp.type);
    return true;
}

} // namespace portend::serve

#else // _WIN32

namespace portend::serve {

namespace {

bool
unsupported(std::string *error)
{
    if (error)
        *error = "the serve protocol is not supported on Windows";
    return false;
}

} // namespace

bool
request(const Endpoint &, const wire::Frame &, wire::Frame *,
        std::string *error)
{
    return unsupported(error);
}

bool
submit(const Endpoint &, const std::string &, std::string *,
       std::string *error)
{
    return unsupported(error);
}

bool
requestStatus(const Endpoint &, std::string *, std::string *error)
{
    return unsupported(error);
}

bool
requestShutdown(const Endpoint &, std::string *error)
{
    return unsupported(error);
}

bool
ping(const Endpoint &, std::string *error)
{
    return unsupported(error);
}

} // namespace portend::serve

#endif // _WIN32
