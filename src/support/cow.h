/**
 * @file
 * Copy-on-write vector for checkpoint-heavy value types.
 *
 * Portend's checkpoint primitive is "copy the VmState"; before
 * copy-on-write that copy was a deep copy of every container.
 * CowVec<T> makes the copy structural sharing instead: copies alias
 * one immutable payload, readers go through the const accessors, and
 * the first writer after a share pays for exactly one clone (the
 * write barrier, rw()). Checkpoints that are never resumed therefore
 * cost O(1), and a resumed fork pays O(touched state), never
 * O(whole state).
 *
 * The payload is one heap block holding the reference count, the
 * size, the capacity and the elements, so a clone is one allocation.
 * An empty vector holds no block at all: default construction,
 * copies and reads of an empty vector allocate nothing, and its
 * first growth allocates the block.
 *
 * Thread compatibility contract (what keeps the scheduler TSan-clean):
 *
 *  - A CowVec is mutated (rw()) only by the thread that owns the
 *    enclosing object (a worker's private VmState).
 *  - Shared checkpoints (ladder rungs, executor worklist entries)
 *    are read-only; concurrent threads may *copy* them — copying
 *    only touches the block's reference count, which is atomic.
 *  - rw() mutates in place only when the count is 1. That test is
 *    reliable here because the only cross-thread references are the
 *    long-lived read-only checkpoints above: while one exists the
 *    count stays > 1 and the writer clones; the count can reach 1
 *    again only via destruction ordered by a pool join.
 */

#ifndef PORTEND_SUPPORT_COW_H
#define PORTEND_SUPPORT_COW_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <initializer_list>
#include <new>
#include <utility>

#include "support/logging.h"

namespace portend {

/**
 * A vector of T behind a shared immutable payload with a write
 * barrier. Copying a CowVec shares; rw() unshares.
 */
template <typename T>
class CowVec
{
    struct Block
    {
        std::atomic<std::size_t> refs;
        std::size_t size;
        std::size_t cap;
    };

    /** Offset of the first element past the block header. */
    static constexpr std::size_t kData =
        (sizeof(Block) + alignof(T) - 1) / alignof(T) * alignof(T);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "CowVec allocates through plain operator new");

  public:
    using value_type = T;
    using iterator = const T *;
    using const_iterator = const T *;

    /** Mutable view of an unshared payload; see rw(). */
    class Writer
    {
      public:
        std::size_t size() const { return v.size(); }
        bool empty() const { return v.empty(); }
        T *data() const { return v.elems(); }

        T &
        operator[](std::size_t i) const
        {
            checkIndex(i, v.size());
            return v.elems()[i];
        }

        T &
        back() const
        {
            checkIndex(v.size() - 1, v.size());
            return v.elems()[v.size() - 1];
        }

        /** Append @p x, growing the block geometrically. */
        void
        push_back(T x) const
        {
            const std::size_t n = v.size();
            if (!v.b || n == v.b->cap)
                v.regrow(std::max<std::size_t>(2 * n, 4));
            ::new (static_cast<void *>(v.elems() + n)) T(std::move(x));
            v.b->size = n + 1;
        }

        void
        pop_back() const
        {
            checkIndex(v.size() - 1, v.size());
            v.b->size -= 1;
            v.elems()[v.b->size].~T();
        }

        /** Resize to @p n, value-initializing new elements; shrinking
         *  keeps the capacity. */
        void
        resize(std::size_t n) const
        {
            const std::size_t old = v.size();
            if (n > old) {
                if (!v.b || n > v.b->cap)
                    v.regrow(std::max(n, 2 * old));
                for (std::size_t i = old; i < n; ++i)
                    ::new (static_cast<void *>(v.elems() + i)) T();
            } else {
                for (std::size_t i = n; i < old; ++i)
                    v.elems()[i].~T();
            }
            if (v.b)
                v.b->size = n;
        }

      private:
        friend class CowVec;
        explicit Writer(CowVec &owner) : v(owner) {}
        CowVec &v;
    };

    CowVec() = default;

    CowVec(std::initializer_list<T> init)
    {
        if (init.size() == 0)
            return;
        b = allocate(init.size());
        for (const T &x : init)
            ::new (static_cast<void *>(elems() + b->size++)) T(x);
    }

    CowVec(const CowVec &o) : b(o.b)
    {
        if (b)
            b->refs.fetch_add(1, std::memory_order_relaxed);
    }

    CowVec(CowVec &&o) noexcept : b(std::exchange(o.b, nullptr)) {}

    CowVec &
    operator=(const CowVec &o)
    {
        CowVec(o).swap(*this);
        return *this;
    }

    CowVec &
    operator=(CowVec &&o) noexcept
    {
        CowVec(std::move(o)).swap(*this);
        return *this;
    }

    ~CowVec() { release(b); }

    void swap(CowVec &o) noexcept { std::swap(b, o.b); }

    std::size_t size() const { return b ? b->size : 0; }
    bool empty() const { return size() == 0; }
    const T *data() const { return elems(); }
    const T *begin() const { return elems(); }
    const T *end() const { return elems() + size(); }

    /** Element @p i (never unshares). */
    const T &
    operator[](std::size_t i) const
    {
        checkIndex(i, size());
        return elems()[i];
    }

    const T &
    back() const
    {
        checkIndex(size() - 1, size());
        return elems()[size() - 1];
    }

    bool
    operator==(const CowVec &o) const
    {
        return b == o.b || std::equal(begin(), end(), o.begin(), o.end());
    }

    /**
     * Mutable view; clones the payload first when it is shared (the
     * write barrier), into a block sized to the elements. The view is
     * valid until this vector is next copied, assigned or destroyed.
     * See the header comment for the threading contract behind the
     * reference-count test.
     */
    Writer
    rw()
    {
        if (!unique()) {
            Block *nb = allocate(b->size);
            const T *src = elems();
            T *dst = reinterpret_cast<T *>(
                reinterpret_cast<char *>(nb) + kData);
            for (std::size_t i = 0; i < b->size; ++i)
                ::new (static_cast<void *>(dst + i)) T(src[i]);
            nb->size = b->size;
            release(std::exchange(b, nb));
        }
        return Writer(*this);
    }

    /** True when both vectors alias the same payload (two empty
     *  vectors alias the empty one). */
    bool sharedWith(const CowVec &o) const { return b == o.b; }

    /** True when an rw() call would mutate in place rather than
     *  clone (an empty vector owns nothing to clone). */
    bool
    unique() const
    {
        return !b || b->refs.load(std::memory_order_acquire) == 1;
    }

  private:
    static void
    checkIndex([[maybe_unused]] std::size_t i,
               [[maybe_unused]] std::size_t n)
    {
#ifdef _GLIBCXX_ASSERTIONS
        PORTEND_ASSERT(i < n, "CowVec index ", i, " out of range ", n);
#endif
    }

    T *
    elems() const
    {
        return b ? reinterpret_cast<T *>(reinterpret_cast<char *>(b) +
                                         kData)
                 : nullptr;
    }

    /** A fresh block of capacity @p cap, count 1, no elements. */
    static Block *
    allocate(std::size_t cap)
    {
        void *raw = ::operator new(kData + cap * sizeof(T));
        Block *nb = ::new (raw) Block;
        nb->refs.store(1, std::memory_order_relaxed);
        nb->size = 0;
        nb->cap = cap;
        return nb;
    }

    /** Drop one reference to @p blk, freeing it with the last. */
    static void
    release(Block *blk) noexcept
    {
        if (!blk || blk->refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
            return;
        T *e = reinterpret_cast<T *>(reinterpret_cast<char *>(blk) +
                                     kData);
        for (std::size_t i = 0; i < blk->size; ++i)
            e[i].~T();
        blk->~Block();
        ::operator delete(static_cast<void *>(blk));
    }

    /** Move the (unshared) elements into a block of capacity @p cap. */
    void
    regrow(std::size_t cap)
    {
        Block *nb = allocate(cap);
        if (b) {
            T *src = elems();
            T *dst = reinterpret_cast<T *>(
                reinterpret_cast<char *>(nb) + kData);
            for (std::size_t i = 0; i < b->size; ++i)
                ::new (static_cast<void *>(dst + i)) T(std::move(src[i]));
            nb->size = b->size;
            release(std::exchange(b, nb));
        } else {
            b = nb;
        }
    }

    Block *b = nullptr;
};

} // namespace portend

#endif // PORTEND_SUPPORT_COW_H
