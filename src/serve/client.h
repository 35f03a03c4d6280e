/**
 * @file
 * Client side of the serve protocol: connect to the server's Unix
 * socket (retrying for kConnectTimeoutSeconds while it binds), send
 * one request frame, read one response frame. Used by `portend
 * submit` (and the serve tests/benches); deliberately synchronous — a
 * submission blocks until the server streams back the merged verdict
 * bytes.
 */

#ifndef PORTEND_SERVE_CLIENT_H
#define PORTEND_SERVE_CLIENT_H

#include <string>

#include "support/wire.h"

namespace portend::serve {

/** Connect retry budget in seconds: a just-started server may not be
 *  listening yet (the CI smoke starts it in the background). */
constexpr double kConnectTimeoutSeconds = 10.0;

/** Where the server listens. */
struct Endpoint
{
    std::string socket_path; ///< the server's Unix socket
};

/**
 * One request/response round trip. False with @p error on connect,
 * I/O, or protocol failure; a server-side "error" frame is returned
 * as a successful round trip (@p resp holds it — callers decide).
 */
bool request(const Endpoint &ep, const wire::Frame &req,
             wire::Frame *resp, std::string *error);

/** Submit a campaign manifest; @p output receives the merged
 *  verdict bytes. False with @p error on any failure, including a
 *  server-side "error" frame. */
bool submit(const Endpoint &ep, const std::string &manifest,
            std::string *output, std::string *error);

/** Fetch the server's status JSON. */
bool requestStatus(const Endpoint &ep, std::string *json,
                   std::string *error);

/** Ask the server to exit its loop. */
bool requestShutdown(const Endpoint &ep, std::string *error);

/** Liveness probe. */
bool ping(const Endpoint &ep, std::string *error);

} // namespace portend::serve

#endif // PORTEND_SERVE_CLIENT_H
