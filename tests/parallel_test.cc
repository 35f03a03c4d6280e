/** @file Unit tests for support/'s fork/join primitive, parallelFor. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/parallel.h"

namespace portend {
namespace {

/**
 * Count one more arrival at @p arrived and wait until @p want have
 * arrived. False after ten seconds without them: the arrivals cannot
 * all be running at once.
 */
bool
rendezvous(std::atomic<int> &arrived, int want)
{
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < want) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(ParallelForTest, HardwareConcurrencyIsPositive)
{
    EXPECT_GE(hardwareConcurrency(), 1);
    EXPECT_EQ(resolveJobs(0), hardwareConcurrency());
    EXPECT_EQ(resolveJobs(-2), hardwareConcurrency());
    EXPECT_EQ(resolveJobs(3), 3);
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce)
{
    for (int workers : {-3, 0, 1, 2, 4, 8}) {
        for (std::size_t n : {0, 1, 3, 100}) {
            std::vector<std::atomic<int>> hits(n);
            parallelFor(workers, n, [&](std::size_t i) {
                hits[i].fetch_add(1);
            });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "workers " << workers << ", n " << n
                    << ", index " << i;
        }
    }
}

TEST(ParallelForTest, OneWorkerRunsInIndexOrderOnTheCallingThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (int workers : {-3, 0, 1}) {
        std::vector<std::size_t> order;
        bool on_caller = true;
        parallelFor(workers, 64, [&](std::size_t i) {
            order.push_back(i);
            on_caller = on_caller && std::this_thread::get_id() == caller;
        });
        ASSERT_EQ(order.size(), 64u);
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i);
        EXPECT_TRUE(on_caller) << "workers " << workers;
    }
}

TEST(ParallelForTest, ThrowSurfacesAfterEveryOtherBodyAndHelpersStayUsable)
{
    for (int workers : {1, 4}) {
        std::atomic<int> finished{0};
        EXPECT_THROW(
            parallelFor(workers, 40,
                        [&](std::size_t i) {
                            if (i == 0)
                                throw std::runtime_error("body failed");
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                            finished.fetch_add(1);
                        }),
            std::runtime_error);
        EXPECT_EQ(finished.load(), 39) << "workers " << workers;
    }

    // The same thread's helpers run the next call in full.
    std::vector<std::atomic<int>> hits(100);
    parallelFor(4, hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const std::atomic<int> &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NestedCallsCompleteEveryInnerIndex)
{
    std::vector<std::atomic<int>> hits(8 * 50);
    parallelFor(4, 8, [&](std::size_t i) {
        parallelFor(3, 50, [&](std::size_t j) {
            hits[i * 50 + j].fetch_add(1);
        });
    });
    for (const std::atomic<int> &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NestedCallsGetHelpersOnTheCallerAndOnHelpers)
{
    // Both outer bodies wait for each other, so one runs on the
    // calling thread and one on its helper. Each nested call's two
    // bodies wait for each other too, so each nested call must have
    // a helper of its own: run inline, its first body would wait for
    // a second that never starts. Twice, to reuse the kept helpers.
    const std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 2; ++round) {
        std::atomic<int> outer_arrived{0};
        std::atomic<int> inner_arrived[2] = {0, 0};
        std::thread::id outer_thread[2];
        std::mutex mu;
        std::set<std::thread::id> inner_threads[2];
        parallelFor(2, 2, [&](std::size_t i) {
            outer_thread[i] = std::this_thread::get_id();
            EXPECT_TRUE(rendezvous(outer_arrived, 2));
            parallelFor(2, 2, [&](std::size_t) {
                {
                    std::lock_guard<std::mutex> lock(mu);
                    inner_threads[i].insert(std::this_thread::get_id());
                }
                EXPECT_TRUE(rendezvous(inner_arrived[i], 2));
            });
        });
        EXPECT_NE(outer_thread[0], outer_thread[1]);
        EXPECT_TRUE(outer_thread[0] == caller ||
                    outer_thread[1] == caller);
        for (const std::set<std::thread::id> &threads : inner_threads)
            EXPECT_EQ(threads.size(), 2u) << "round " << round;
    }
}

} // namespace
} // namespace portend
