/**
 * @file
 * The one fork/join primitive.
 *
 * Classification fans independent work out at three levels: race
 * clusters (core::ClassificationScheduler), whole programs
 * (campaign::Campaign::run) and fuzz programs (fuzz::runFuzz). All
 * three call parallelFor. The determinism rule is the caller's: each
 * body writes a slot of its own, chosen by index, and the caller
 * merges the slots in index order after the call, so no result
 * depends on which thread ran an index or when it finished.
 */

#ifndef PORTEND_SUPPORT_PARALLEL_H
#define PORTEND_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace portend {

/**
 * Usable hardware threads; always >= 1 even when the runtime cannot
 * tell (std::thread::hardware_concurrency() returns 0).
 */
int hardwareConcurrency();

/**
 * The one definition of the jobs dial: a positive request is taken
 * as-is, anything else means one worker per hardware thread.
 */
inline int
resolveJobs(int requested)
{
    return requested > 0 ? requested : hardwareConcurrency();
}

/**
 * Run @p body(i) for every i in [0, n) on the calling thread plus
 * `workers - 1` helper threads (a @p workers below 1 counts as 1,
 * and no more workers run than there are indices). Every worker
 * claims indices in ascending order from one shared cursor, so one
 * worker runs them in order on the calling thread.
 *
 * The calling thread keeps its helpers across calls, one set per
 * nesting depth: a body that calls parallelFor gets helpers of its
 * own, whether it runs on the calling thread or on a helper. The
 * helpers are joined when the calling thread exits. A forked child
 * has none of its parent's helper threads, so it must not fan out
 * at a depth where the parent kept helpers.
 *
 * A body that throws does not stop the others: every index still
 * runs, and once every body has finished, the first exception
 * thrown is rethrown.
 */
void parallelFor(int workers, std::size_t n,
                 const std::function<void(std::size_t)> &body);

} // namespace portend

#endif // PORTEND_SUPPORT_PARALLEL_H
