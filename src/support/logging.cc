#include "support/logging.h"

#include <cstdio>
#include <cstdlib>

namespace portend {

void
panicImpl(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace portend
