#include "rt/value.h"

namespace portend::rt {

namespace {
thread_local std::uint64_t g_values_boxed = 0;
} // namespace

std::uint64_t
valuesBoxed()
{
    return g_values_boxed;
}

namespace detail {

void
noteBoxed(std::uint64_t n)
{
    g_values_boxed += n;
}

} // namespace detail

} // namespace portend::rt
