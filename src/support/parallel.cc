#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace portend {

namespace {

/**
 * The helper threads one calling thread keeps at one nesting depth.
 * Between calls they sleep on a condition variable. reserve() starts
 * more only when a call needs more than there are; run() has the
 * first `count` of them drain with the calling thread.
 */
class Helpers
{
  public:
    Helpers() = default;
    Helpers(const Helpers &) = delete;
    Helpers &operator=(const Helpers &) = delete;

    /** Stops and joins every helper (at the owner's thread exit). */
    ~Helpers()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    /** Have at least @p count helpers (only the owner calls this). */
    void
    reserve(std::size_t count)
    {
        // Only the owner writes round_, so it reads it unlocked.
        while (threads_.size() < count)
            threads_.emplace_back(&Helpers::loop, this, threads_.size(),
                                  round_);
    }

    /**
     * Run @p drain on the first @p count helpers (see reserve) and on
     * the calling thread, and return once every copy has finished.
     * @p drain must not throw.
     */
    void
    run(std::size_t count, const std::function<void()> &drain)
    {
        std::unique_lock<std::mutex> lock(mu_);
        drain_ = &drain;
        active_ = count;
        busy_ = count;
        round_ += 1;
        lock.unlock();
        wake_.notify_all();
        drain();
        // The drains reference the caller's frame: wait for all.
        lock.lock();
        idle_.wait(lock, [this] { return busy_ == 0; });
    }

  private:
    /** Helper @p id's body; @p seen is the last round it was woken for. */
    void
    loop(std::size_t id, std::uint64_t seen)
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            wake_.wait(lock,
                       [&] { return stopping_ || round_ != seen; });
            if (stopping_)
                return;
            seen = round_;
            if (id >= active_)
                continue;
            const std::function<void()> &drain = *drain_;
            lock.unlock();
            drain();
            lock.lock();
            if (--busy_ == 0)
                idle_.notify_one();
        }
    }

    std::mutex mu_;
    std::condition_variable wake_; ///< a round started, or stopping_
    std::condition_variable idle_; ///< busy_ reached 0
    const std::function<void()> *drain_ = nullptr; ///< this round's
    std::size_t active_ = 0; ///< helpers taking part in this round
    std::size_t busy_ = 0;   ///< of those, the ones still draining
    std::uint64_t round_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> threads_; ///< after what they use
};

} // namespace

int
hardwareConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? static_cast<int>(n) : 1;
}

void
parallelFor(int workers, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr error;
    const std::function<void()> drain = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    const std::size_t threads = std::min(
        n, static_cast<std::size_t>(std::max(1, workers)));
    if (threads <= 1) {
        drain();
    } else {
        // While this call runs, the helpers at this depth are busy
        // with it, so a body on this thread that fans out again
        // takes the next depth's set. A deque, so that a nested
        // call's emplace_back leaves this call's set in place.
        thread_local std::deque<Helpers> sets;
        thread_local std::size_t depth = 0;
        if (sets.size() == depth)
            sets.emplace_back();
        Helpers &helpers = sets[depth];
        helpers.reserve(threads - 1);
        depth += 1;
        helpers.run(threads - 1, drain);
        depth -= 1;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace portend
