/**
 * @file
 * The discrete-event queue at the heart of the device simulator.
 *
 * Events are callbacks scheduled at absolute simulated times. Ties are
 * broken by insertion order so runs are deterministic. Events can be
 * cancelled through the id returned at scheduling time.
 *
 * Storage model (DESIGN.md §14): callbacks live in a slab of event records
 * threaded on a free list — no per-event heap allocation and no hash
 * operations anywhere on the dispatch path. Heap entries index the slab
 * directly; ids carry a generation tag so Cancel() of a stale id (already
 * ran, already cancelled, slot since reused) is detected exactly. A
 * repeating event (ScheduleEvery) re-arms its own slab record in place, so
 * steady-state periodic firing — governor timers, thermal polling, a
 * fault-injected power monitor — allocates nothing at all.
 *
 * The dispatch order contract is unchanged from the original
 * unordered_map-backed queue: strictly increasing (when, seq), seq assigned
 * per schedule *and* per repeating re-arm in the same order the old
 * PeriodicTask consumed them, so bench outputs are byte-identical.
 */
#ifndef AEO_SIM_EVENT_QUEUE_H_
#define AEO_SIM_EVENT_QUEUE_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/event_callback.h"
#include "sim/time.h"

namespace aeo {

/** Opaque handle identifying a scheduled event: a slab index plus the
 * slot's generation at allocation time (see EventQueue). */
using EventId = uint64_t;

/** Sentinel returned for "no event". */
inline constexpr EventId kInvalidEventId = 0;

/**
 * Process-wide count of executed events, aggregated as queues are
 * destroyed (each run's Device owns one). Benches report it as events/sec;
 * the dispatch path itself touches only the queue-local counter.
 */
uint64_t TotalExecutedEvents();

/** Time-ordered queue of callbacks with stable tie-breaking. */
class EventQueue {
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Schedules @p fn at absolute time @p when; returns a cancellable id. */
    template <typename F>
    EventId
    Schedule(SimTime when, F&& fn)
    {
        return Arm(when, SimTime::Zero(), std::forward<F>(fn));
    }

    /**
     * Schedules a repeating event: first fires at @p first, then every
     * @p period (> 0) until cancelled. The next occurrence is re-armed in
     * the same slab record *before* the callback runs — same seq
     * consumption as a self-rescheduling one-shot, zero allocations per
     * fire. The returned id cancels the whole series.
     */
    template <typename F>
    EventId
    ScheduleEvery(SimTime first, SimTime period, F&& fn)
    {
        AEO_ASSERT(period > SimTime::Zero(), "repeat period must be positive");
        return Arm(first, period, std::forward<F>(fn));
    }

    /**
     * Cancels a previously scheduled event (or repeating series).
     *
     * @return true if the event was pending and is now cancelled; false if it
     *         already ran, was already cancelled, or the id is unknown.
     */
    bool
    Cancel(EventId id)
    {
        const uint64_t raw_slot = (id & 0xffffffffULL);
        if (raw_slot == 0 || raw_slot > slab_size_) {
            return false;
        }
        const auto slot = static_cast<uint32_t>(raw_slot - 1);
        Slot& s = SlotAt(slot);
        if (!s.armed || s.generation != static_cast<uint32_t>(id >> 32)) {
            return false;
        }
        s.armed = false;
        BumpGeneration(s);  // invalidates the slot's heap entry lazily
        --pending_count_;
        if (s.firing) {
            // Mid-dispatch of this repeating event: its storage is live on
            // the call stack, so the slot returns to the free list only
            // after the callback finishes (see RunNext).
            s.free_deferred = true;
        } else {
            Release(slot);
        }
        return true;
    }

    /** True when no runnable events remain. */
    bool
    Empty() const
    {
        DropStaleHead();
        return heap_.empty();
    }

    /** Time of the earliest pending event; panics if empty. */
    SimTime
    NextTime() const
    {
        DropStaleHead();
        AEO_ASSERT(!heap_.empty(), "NextTime() on empty event queue");
        return heap_.front().when;
    }

    /** Stores the earliest pending (when, seq) and returns true, or returns
     * false when no runnable events remain (the run loop's fused check). */
    bool
    NextIfAny(SimTime* when, uint64_t* seq) const
    {
        DropStaleHead();
        if (heap_.empty()) {
            return false;
        }
        *when = heap_.front().when;
        *seq = heap_.front().seq;
        return true;
    }

    /** The seq the next Schedule() or repeating re-arm will take; every
     * pending event's seq is below it. */
    uint64_t next_seq() const { return next_seq_; }

    /**
     * Removes and runs the earliest pending event.
     *
     * @return the time of the event that ran; panics if empty.
     */
    // aeo: hot-path
    SimTime
    RunNext()
    {
        DropStaleHead();
        AEO_ASSERT(!heap_.empty(), "RunNext() on empty event queue");
        const HeapEntry entry = heap_.front();
        Slot& s = SlotAt(entry.slot);
        ++executed_count_;
        if (s.period > SimTime::Zero()) {
            // Repeating: re-arm the same record before delivering, so a
            // callback that schedules events sees the same seq order as the
            // old reschedule-before-deliver PeriodicTask. The next
            // occurrence replaces the extracted top in one sift instead of
            // a pop + push pair — extraction order is governed solely by
            // the total order on (when, seq), so this is unobservable.
            heap_.front() = HeapEntry{entry.when + s.period, next_seq_++,
                                      entry.slot, s.generation};
            SiftDown(0);
            s.firing = true;
            s.fn();
            s.firing = false;
            if (s.free_deferred) {
                s.free_deferred = false;
                Release(entry.slot);
            }
        } else {
            PopTop();
            // One-shot: move the callback out and free the slot first, so
            // the callback can schedule into (and Cancel() ids of) a fully
            // consistent queue — matching the old erase-before-invoke order.
            EventCallback fn = std::move(s.fn);
            s.armed = false;
            BumpGeneration(s);
            --pending_count_;
            Release(entry.slot);
            fn();
        }
        return entry.when;
    }

    /** Number of pending (non-cancelled) events; a repeating series counts
     * as one while armed. */
    size_t PendingCount() const { return pending_count_; }

    /** Total events executed so far (for instrumentation). */
    uint64_t executed_count() const { return executed_count_; }

    /** Slab records handed out so far (for tests: bounded by peak
     * concurrency, not churn). */
    size_t SlabSize() const { return slab_size_; }

    /** Records per slab chunk: a pinned device run holds 2 at its peak and
     * a stock run 5, so one chunk serves either. */
    static constexpr uint32_t kChunkSlots = 8;

  private:
    /**
     * One slab record. Lives in a chunk that never moves, so addresses are
     * stable: a repeating callback is invoked in place while the callback
     * itself may grow the slab by scheduling.
     */
    struct Slot {
        EventCallback fn;
        /** Zero for one-shots; the re-arm interval for repeating events. */
        SimTime period;
        /** Tag carried by ids and heap entries; bumped whenever the slot's
         * current registration dies, so stale references never match. */
        uint32_t generation = 1;
        /** Free-list link, valid while the slot is free. */
        uint32_t next_free = 0;
        /** A live registration occupies this slot. */
        bool armed = false;
        /** The repeating callback is executing right now. */
        bool firing = false;
        /** Cancelled mid-fire: release after the callback returns. */
        bool free_deferred = false;
    };

    struct HeapEntry {
        SimTime when;
        uint64_t seq;
        uint32_t slot;
        uint32_t generation;
    };

    /** Heap priority: earliest (when, seq) on top. Seqs are unique, so this
     * is a strict total order — heap layout never leaks into run order. */
    static bool
    Earlier(const HeapEntry& a, const HeapEntry& b)
    {
        if (a.when != b.when) {
            return a.when < b.when;
        }
        return a.seq < b.seq;
    }

    static constexpr uint32_t kNoFreeSlot = 0xffffffffu;

    /** Restores the min-heap invariant upward from @p i (after push_back). */
    void
    SiftUp(size_t i) const
    {
        HeapEntry moving = heap_[i];
        while (i > 0) {
            const size_t parent = (i - 1) / 2;
            if (!Earlier(moving, heap_[parent])) {
                break;
            }
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = moving;
    }

    /** Restores the min-heap invariant downward from @p i (after a
     * replace-top or pop). */
    void
    SiftDown(size_t i) const
    {
        const size_t n = heap_.size();
        HeapEntry moving = heap_[i];
        for (;;) {
            size_t child = 2 * i + 1;
            if (child >= n) {
                break;
            }
            if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) {
                ++child;
            }
            if (!Earlier(heap_[child], moving)) {
                break;
            }
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = moving;
    }

    /** Removes the heap's top entry. */
    void
    PopTop() const
    {
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            SiftDown(0);
        }
    }

    template <typename F>
    EventId
    Arm(SimTime when, SimTime period, F&& fn)
    {
        if constexpr (requires { static_cast<bool>(fn); }) {
            AEO_ASSERT(static_cast<bool>(fn), "scheduling a null callback");
        }
        const uint32_t slot = Acquire();
        Slot& s = SlotAt(slot);
        s.fn = EventCallback(std::forward<F>(fn));
        s.period = period;
        s.armed = true;
        s.firing = false;
        s.free_deferred = false;
        // aeo-lint: allow(hot-path-alloc) -- the heap reuses its capacity;
        // it grows only past the armed-timer high-water mark.
        heap_.push_back(HeapEntry{when, next_seq_++, slot, s.generation});
        SiftUp(heap_.size() - 1);
        ++pending_count_;
        return (static_cast<uint64_t>(s.generation) << 32) |
               static_cast<uint64_t>(slot + 1);
    }

    uint32_t
    Acquire()
    {
        if (free_head_ != kNoFreeSlot) {
            const uint32_t slot = free_head_;
            free_head_ = SlotAt(slot).next_free;
            return slot;
        }
        if ((slab_size_ & kChunkMask) == 0) {
            // aeo-lint: allow(hot-path-alloc) -- pool growth: taken only when
            // the free list is empty; the steady state recycles slots.
            chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
        }
        return slab_size_++;
    }

    /** The record at slab index @p slot: a shift and a mask. */
    Slot&
    SlotAt(uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }

    const Slot&
    SlotAt(uint32_t slot) const
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }

    /** Destroys the slot's callback and returns it to the free list. The
     * generation was already bumped when the registration died. */
    void
    Release(uint32_t slot)
    {
        Slot& s = SlotAt(slot);
        s.fn.Reset();
        s.next_free = free_head_;
        free_head_ = slot;
    }

    static void
    BumpGeneration(Slot& s)
    {
        if (++s.generation == 0) {
            s.generation = 1;  // 0 is reserved so decoded ids never match
        }
    }

    /** Pops heap entries whose registration died (cancelled or re-armed
     * under a new generation); amortized O(1) per cancelled event. */
    void
    DropStaleHead() const
    {
        while (!heap_.empty()) {
            const HeapEntry& top = heap_.front();
            const Slot& s = SlotAt(top.slot);
            if (s.armed && s.generation == top.generation) {
                return;
            }
            PopTop();
        }
    }

    static_assert(std::has_single_bit(kChunkSlots),
                  "slab chunks hold a power of two of records");
    static constexpr uint32_t kChunkShift = std::countr_zero(kChunkSlots);
    static constexpr uint32_t kChunkMask = kChunkSlots - 1;

    /** The slab: fixed-size chunks that never move, so a record keeps its
     * address while the slab grows. */
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    /** Records handed out; the next fresh record's index. */
    uint32_t slab_size_ = 0;
    /** Binary heap over live (and lazily-dropped stale) entries. */
    mutable std::vector<HeapEntry> heap_;
    uint32_t free_head_ = kNoFreeSlot;
    uint64_t next_seq_ = 1;
    size_t pending_count_ = 0;
    uint64_t executed_count_ = 0;
};

}  // namespace aeo

#endif  // AEO_SIM_EVENT_QUEUE_H_
