/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for user errors
 * (bad configuration, malformed programs). warn() reports a
 * condition on stderr without stopping execution.
 */

#ifndef PORTEND_SUPPORT_LOGGING_H
#define PORTEND_SUPPORT_LOGGING_H

#include <sstream>
#include <string>

namespace portend {

/**
 * Report an internal invariant violation and abort.
 *
 * @param msg description of the broken invariant
 * @param file source file of the call site
 * @param line source line of the call site
 */
[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);

/**
 * Report an unrecoverable user-level error and exit(1).
 *
 * @param msg description of the error
 */
[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);

/** Emit a warning; execution continues. */
void warnImpl(const std::string &msg);

namespace detail {

/** Fold a pack of stream-printable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace portend

#define PORTEND_PANIC(...)                                                  \
    ::portend::panicImpl(::portend::detail::concat(__VA_ARGS__), __FILE__, \
                         __LINE__)

#define PORTEND_FATAL(...)                                                  \
    ::portend::fatalImpl(::portend::detail::concat(__VA_ARGS__), __FILE__, \
                         __LINE__)

#define PORTEND_WARN(...)                                                   \
    ::portend::warnImpl(::portend::detail::concat(__VA_ARGS__))

/** Internal invariant check: panics with the condition text on failure. */
#define PORTEND_ASSERT(cond, ...)                                           \
    do {                                                                    \
        if (!(cond)) {                                                      \
            PORTEND_PANIC("assertion failed: ", #cond, " ",                 \
                          ::portend::detail::concat(__VA_ARGS__));          \
        }                                                                   \
    } while (0)

#endif // PORTEND_SUPPORT_LOGGING_H
