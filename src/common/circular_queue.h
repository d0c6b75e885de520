/**
 * @file
 * Fixed-capacity circular FIFO used for all hardware queue models (issue
 * queues, agent communication queues, component-internal queues). Capacity
 * is a runtime parameter because the paper sweeps queue sizes (queueQ).
 */

#ifndef PFM_COMMON_CIRCULAR_QUEUE_H
#define PFM_COMMON_CIRCULAR_QUEUE_H

#include <cstddef>
#include <vector>

#include "common/log.h"
#include "sim/checkpoint.h"

namespace pfm {

/**
 * Bounded FIFO with index-stable access to entries between head and tail.
 * Entries are stored in a ring; pushFront is not supported (hardware FIFOs
 * don't do that either).
 */
template <typename T>
class CircularQueue
{
  public:
    CircularQueue() = default;

    explicit CircularQueue(size_t capacity) { allocate(capacity); }

    /**
     * Re-establish the capacity of an empty queue. @p who names the
     * owning structure (e.g. the TimedPort) in the failure diagnostic so
     * a mis-sized paper queue is identifiable from the abort message.
     */
    void
    setCapacity(size_t capacity, const char* who = "queue")
    {
        pfm_assert(empty(), "cannot resize non-empty queue '%s' (size %zu)",
                   who, size_);
        allocate(capacity);
    }

    size_t capacity() const { return capacity_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }
    size_t freeSlots() const { return capacity_ - size_; }

    /** Push to the tail. The queue must not be full. */
    void
    push(T v)
    {
        pfm_assert(!full(), "push to full queue (capacity %zu)", capacity_);
        buf_[(head_ + size_) & mask_] = std::move(v);
        ++size_;
    }

    /** Pop from the head. The queue must not be empty. */
    T
    pop()
    {
        pfm_assert(!empty(), "pop from empty queue");
        T v = std::move(buf_[head_]);
        head_ = (head_ + 1) & mask_;
        --size_;
        return v;
    }

    /** Head element (oldest). */
    T& front() { pfm_assert(!empty(), "front of empty queue"); return buf_[head_]; }
    const T& front() const
    {
        pfm_assert(!empty(), "front of empty queue");
        return buf_[head_];
    }

    /** Tail element (youngest). */
    T&
    back()
    {
        pfm_assert(!empty(), "back of empty queue");
        return buf_[(head_ + size_ - 1) & mask_];
    }

    /** i-th element from the head (0 == front). */
    T&
    at(size_t i)
    {
        pfm_assert(i < size_, "index %zu out of range (size %zu)", i, size_);
        return buf_[(head_ + i) & mask_];
    }
    const T&
    at(size_t i) const
    {
        pfm_assert(i < size_, "index %zu out of range (size %zu)", i, size_);
        return buf_[(head_ + i) & mask_];
    }

    /** Drop the @p n youngest entries (squash support). */
    void
    popBack(size_t n)
    {
        pfm_assert(n <= size_, "popBack(%zu) with size %zu", n, size_);
        size_ -= n;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /**
     * Checkpoint the occupied entries head-to-tail. Capacity is a config
     * parameter (re-established at construction), not serialized state;
     * the ring phase (head_) is normalized away, which is unobservable
     * through this interface.
     */
    void
    saveState(CkptWriter& w) const
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "CircularQueue checkpointing needs POD entries");
        w.put<std::uint64_t>(size_);
        for (size_t i = 0; i < size_; ++i)
            w.put(at(i));
    }

    void
    loadState(CkptReader& r)
    {
        clear();
        std::uint64_t n = r.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i)
            push(r.get<T>());
    }

  private:
    /**
     * The ring is the next power of two at or above @p capacity, so a
     * slot index is a mask rather than a division; capacity_ alone bounds
     * occupancy.
     */
    void
    allocate(size_t capacity)
    {
        size_t ring = 1;
        while (ring < capacity)
            ring <<= 1;
        buf_.assign(ring, T{});
        mask_ = ring - 1;
        capacity_ = capacity;
        head_ = 0;
        size_ = 0;
    }

    std::vector<T> buf_;
    size_t mask_ = 0;
    size_t capacity_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace pfm

#endif // PFM_COMMON_CIRCULAR_QUEUE_H
