/**
 * @file
 * Deterministic work-unit queue.
 *
 * The campaign engine and the classification scheduler both fan a
 * fixed, fully materialized list of work units out to workers. The
 * queue codifies the determinism rule those layers share: the unit
 * list is built *before* any worker runs, units are dispensed by an
 * atomic cursor in index order, and results are always merged back
 * by unit index, never by completion order. Workers race only on the
 * cursor; the units themselves are immutable once the queue is
 * armed.
 *
 * Header-only and dependency-free on purpose: the queue is the
 * work-unit boundary between the campaign layer and the layers below
 * it (portend::core pulls cluster units through it), so it must not
 * drag the engine's dependencies downwards.
 */

#ifndef PORTEND_CAMPAIGN_QUEUE_H
#define PORTEND_CAMPAIGN_QUEUE_H

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace portend::campaign {

/**
 * A drain-order queue over an immutable unit list. `next()` hands
 * each unit out exactly once, in index order; the unit's index in
 * the original list travels with it so results can be merged
 * deterministically.
 */
template <typename Unit>
class Queue
{
  public:
    Queue() = default;

    explicit Queue(std::vector<Unit> units) : units_(std::move(units))
    {}

    /** Number of units the queue was armed with. */
    std::size_t size() const { return units_.size(); }

    /** Read-only access by index (merge phase). */
    const Unit &at(std::size_t i) const { return units_[i]; }

    /**
     * Claim the next unit, or nullptr when drained. Thread-safe; the
     * returned pointer stays valid for the queue's lifetime.
     *
     * @param index_out when non-null, receives the unit's index
     */
    const Unit *
    next(std::size_t *index_out = nullptr)
    {
        const std::size_t i =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= units_.size())
            return nullptr;
        if (index_out)
            *index_out = i;
        return &units_[i];
    }

    /** True once every unit has been claimed. */
    bool
    drained() const
    {
        return cursor_.load(std::memory_order_relaxed) >=
               units_.size();
    }

  private:
    std::vector<Unit> units_;
    std::atomic<std::size_t> cursor_{0};
};

} // namespace portend::campaign

#endif // PORTEND_CAMPAIGN_QUEUE_H
