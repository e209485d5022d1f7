/**
 * @file
 * Property tests for the slab-backed EventQueue (DESIGN.md §14), checked
 * against a deliberately naive reference model, plus the zero-allocation
 * steady-state contract measured through a counting operator-new hook.
 *
 * The reference model is a flat vector scanned linearly for the earliest
 * (when, seq) pair — quadratic and allocation-happy, but obviously correct.
 * Random interleavings of schedule / cancel / stale-cancel / ScheduleEvery /
 * RunNext must produce the identical firing log and identical Cancel()
 * return values on both implementations, across generations of slot reuse.
 *
 * This binary runs under the unit suite and, via its robustness and
 * concurrency labels, under the ASan/UBSan and TSan CI jobs — the slab's
 * deferred-free and generation-reuse paths are exactly where lifetime bugs
 * would hide.
 */
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/random.h"

// GCC pairs the inlined allocator calls with this TU's replacement
// operator new (malloc-backed) and flags the free() in the replacement
// delete as mismatched — a false positive for a conforming global
// replacement pair, so the check is off for this file only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

/** Heap operations observed by the counting hook below. */
std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

// Counting allocator hook: every heap allocation in this test binary passes
// through here, so the zero-allocation dispatch contract is measured, not
// inferred. Per-binary only — the library under test is unchanged.
void*
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace aeo {
namespace {

/**
 * The naive reference: entries in a vector, earliest (when, seq) found by
 * linear scan. Repeating entries consume a fresh seq at each re-arm, before
 * delivery — the same order the real queue guarantees.
 */
class ReferenceQueue {
  public:
    /** Returns an opaque id; @p period zero means one-shot. */
    uint64_t
    Schedule(SimTime when, SimTime period, int tag)
    {
        entries_.push_back(Entry{next_id_++, next_seq_++, when, period, tag});
        return entries_.back().id;
    }

    bool
    Cancel(uint64_t id)
    {
        for (size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].id == id) {
                entries_.erase(entries_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                return true;
            }
        }
        return false;
    }

    bool Empty() const { return entries_.empty(); }

    /** Fires the earliest entry; returns its (tag, when). */
    std::pair<int, SimTime>
    RunNext()
    {
        size_t best = 0;
        for (size_t i = 1; i < entries_.size(); ++i) {
            const Entry& e = entries_[i];
            const Entry& b = entries_[best];
            if (e.when < b.when || (e.when == b.when && e.seq < b.seq)) {
                best = i;
            }
        }
        Entry& chosen = entries_[best];
        const std::pair<int, SimTime> fired{chosen.tag, chosen.when};
        if (chosen.period > SimTime::Zero()) {
            chosen.seq = next_seq_++;
            chosen.when = chosen.when + chosen.period;
        } else {
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(best));
        }
        return fired;
    }

  private:
    struct Entry {
        uint64_t id;
        uint64_t seq;
        SimTime when;
        SimTime period;
        int tag;
    };
    std::vector<Entry> entries_;
    uint64_t next_id_ = 1;
    uint64_t next_seq_ = 1;
};

/** One randomized interleaving driven by @p seed; the real queue and the
 * reference must agree on every firing and every Cancel() result. */
void
RunInterleaving(uint64_t seed, int ops)
{
    Rng rng(seed);
    EventQueue queue;
    ReferenceQueue ref;

    std::vector<std::pair<int, SimTime>> real_log;
    std::vector<std::pair<int, SimTime>> ref_log;
    // Ids handed out so far, real and reference side by side. Never pruned:
    // picking an already-dead pair is exactly the stale-cancel case.
    std::vector<std::pair<EventId, uint64_t>> ids;
    SimTime now = SimTime::Zero();
    int next_tag = 0;

    for (int op = 0; op < ops; ++op) {
        const int64_t roll = rng.UniformInt(0, 99);
        if (roll < 35) {
            // One-shot at now + [0, 50] us; ties with pending events are
            // frequent by construction.
            const SimTime when =
                now + SimTime::Micros(rng.UniformInt(0, 50));
            const int tag = next_tag++;
            const EventId real = queue.Schedule(
                when, [tag, &real_log, when] {
                    real_log.emplace_back(tag, when);
                });
            ids.emplace_back(real, ref.Schedule(when, SimTime::Zero(), tag));
        } else if (roll < 50) {
            // Repeating series; short periods so several firings land
            // inside the run window.
            const SimTime first =
                now + SimTime::Micros(rng.UniformInt(0, 30));
            const SimTime period =
                SimTime::Micros(rng.UniformInt(1, 20));
            const int tag = next_tag++;
            // The real callback cannot know its own `when`, so both logs
            // record the queue-reported firing time instead.
            const EventId real =
                queue.ScheduleEvery(first, period, [tag, &real_log] {
                    real_log.emplace_back(tag, SimTime::Zero());
                });
            ids.emplace_back(real, ref.Schedule(first, period, tag));
        } else if (roll < 75 && !ids.empty()) {
            // Cancel a random id — live, already-fired, already-cancelled
            // or since-reused slot; both sides must agree on the result.
            const auto& pick = ids[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
            EXPECT_EQ(queue.Cancel(pick.first), ref.Cancel(pick.second))
                << "seed " << seed << " op " << op;
        } else {
            // Drain a few events from both sides.
            const int64_t burst = rng.UniformInt(1, 8);
            for (int64_t i = 0; i < burst && !queue.Empty(); ++i) {
                ASSERT_FALSE(ref.Empty()) << "seed " << seed << " op " << op;
                const SimTime fired_at = queue.RunNext();
                now = fired_at;
                auto fired_ref = ref.RunNext();
                ASSERT_FALSE(real_log.empty());
                real_log.back().second = fired_at;
                ASSERT_EQ(real_log.back().first, fired_ref.first)
                    << "seed " << seed << " op " << op;
                ASSERT_EQ(fired_at, fired_ref.second)
                    << "seed " << seed << " op " << op;
                ref_log.push_back(fired_ref);
            }
            EXPECT_EQ(queue.Empty(), ref.Empty())
                << "seed " << seed << " op " << op;
        }
    }

    // Drain the remainder (repeating series would run forever; stop once
    // every one-shot difference is settled — a bounded number of steps).
    int remaining = 4096;
    while (!queue.Empty() && remaining-- > 0) {
        ASSERT_FALSE(ref.Empty());
        const SimTime fired_at = queue.RunNext();
        auto fired_ref = ref.RunNext();
        ASSERT_FALSE(real_log.empty());
        real_log.back().second = fired_at;
        ASSERT_EQ(real_log.back().first, fired_ref.first);
        ASSERT_EQ(fired_at, fired_ref.second);
        ref_log.push_back(fired_ref);
    }
    EXPECT_EQ(real_log, ref_log) << "seed " << seed;
}

TEST(EventQueuePropertyTest, MatchesReferenceModelAcrossSeeds)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        RunInterleaving(seed, 400);
    }
}

TEST(EventQueuePropertyTest, GenerationTagsSurviveHeavySlotReuse)
{
    // Hammer one slot through many generations; every stale id must keep
    // reporting false without disturbing the live registration.
    EventQueue queue;
    std::vector<EventId> stale;
    for (int round = 0; round < 1000; ++round) {
        const EventId id = queue.Schedule(SimTime::Micros(round), [] {});
        ASSERT_TRUE(queue.Cancel(id));
        stale.push_back(id);
    }
    int fired = 0;
    const EventId live =
        queue.Schedule(SimTime::Micros(5), [&fired] { ++fired; });
    for (const EventId id : stale) {
        EXPECT_FALSE(queue.Cancel(id));
    }
    EXPECT_EQ(queue.PendingCount(), 1u);
    queue.RunNext();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(queue.Cancel(live));
    // Churn never grew the slab past peak concurrency.
    EXPECT_LE(queue.SlabSize(), 2u);
}

TEST(EventQueuePropertyTest, RepeatingReArmOrdersBeforeCallbackSchedules)
{
    // The series re-arms (consuming a seq) before its callback runs, so a
    // one-shot the callback schedules at the exact next-occurrence time
    // must fire *after* that occurrence — the PeriodicTask-era contract.
    EventQueue queue;
    std::vector<int> order;
    bool armed = false;
    const EventId series = queue.ScheduleEvery(
        SimTime::Millis(1), SimTime::Millis(1), [&] {
            order.push_back(0);
            if (!armed) {
                armed = true;
                queue.Schedule(SimTime::Millis(2), [&] { order.push_back(1); });
            }
        });
    queue.RunNext();  // t=1ms: series fires, schedules one-shot at t=2ms
    queue.RunNext();  // t=2ms: series again (earlier seq)
    queue.RunNext();  // t=2ms: the one-shot
    EXPECT_EQ(order, (std::vector<int>{0, 0, 1}));
    EXPECT_TRUE(queue.Cancel(series));
    EXPECT_TRUE(queue.Empty());
}

TEST(EventQueuePropertyTest, CancelOwnSeriesMidFireDefersSlotFree)
{
    // A repeating callback cancelling itself exercises the deferred-free
    // path: the slot must stay live for the rest of the call, then return
    // to the free list and be safely reusable.
    EventQueue queue;
    int fires = 0;
    EventId self = kInvalidEventId;
    self = queue.ScheduleEvery(SimTime::Millis(1), SimTime::Millis(1), [&] {
        ++fires;
        EXPECT_TRUE(queue.Cancel(self));
        EXPECT_FALSE(queue.Cancel(self));  // immediately stale
    });
    queue.RunNext();
    EXPECT_EQ(fires, 1);
    EXPECT_TRUE(queue.Empty());
    EXPECT_EQ(queue.PendingCount(), 0u);
    // The freed slot is reusable and fires normally.
    queue.Schedule(SimTime::Millis(5), [&fires] { ++fires; });
    queue.RunNext();
    EXPECT_EQ(fires, 2);
}

TEST(EventQueuePropertyTest, SlabGrowsUnderALiveRepeatingCallback)
{
    // A repeating callback runs in place in its slab record. Here it arms,
    // while firing, more one-shots than one slab chunk holds, so the slab
    // grows new chunks mid-dispatch: the record must stay where it is, the
    // dispatch order must match the reference model, and the slab must
    // stay bounded by peak concurrency, not by churn.
    EventQueue queue;
    ReferenceQueue ref;
    std::vector<std::pair<int, SimTime>> real_log;
    std::vector<std::pair<int, SimTime>> ref_log;
    // One-shots the series armed during the last dispatch, for the test to
    // mirror into the reference in the same (seq) order.
    std::vector<std::pair<SimTime, int>> armed;
    std::vector<const void*> record_addresses;
    static constexpr int kSeriesTag = -1;
    const int burst = 2 * static_cast<int>(EventQueue::kChunkSlots) + 3;
    size_t peak_pending = 0;

    struct Series {
        EventQueue* queue;
        std::vector<std::pair<int, SimTime>>* log;
        std::vector<std::pair<SimTime, int>>* armed;
        std::vector<const void*>* addresses;
        size_t* peak_pending;
        Rng* rng;
        int burst;
        int fires = 0;
        int next_tag = 0;
        SimTime now = SimTime::Micros(100);

        void
        operator()()
        {
            addresses->push_back(this);
            log->emplace_back(kSeriesTag, SimTime::Zero());
            // Two bursts whose one-shots overlap in time.
            if (fires < 2) {
                for (int i = 0; i < burst; ++i) {
                    const SimTime when =
                        now + SimTime::Micros(rng->UniformInt(0, 250));
                    const int tag = next_tag++;
                    queue->Schedule(when, [tag, this] {
                        log->emplace_back(tag, SimTime::Zero());
                    });
                    armed->emplace_back(when, tag);
                }
                *peak_pending = std::max(*peak_pending, queue->PendingCount());
            }
            ++fires;
            now = now + SimTime::Micros(100);
        }
    };
    Rng rng(2017);
    const EventId series = queue.ScheduleEvery(
        SimTime::Micros(100), SimTime::Micros(100),
        Series{&queue, &real_log, &armed, &record_addresses, &peak_pending,
               &rng, burst});
    ref.Schedule(SimTime::Micros(100), SimTime::Micros(100), kSeriesTag);
    EXPECT_EQ(queue.SlabSize(), 1u);

    const auto step = [&] {
        const SimTime fired_at = queue.RunNext();
        ASSERT_FALSE(real_log.empty());
        real_log.back().second = fired_at;
        ref_log.push_back(ref.RunNext());
        for (const auto& [when, tag] : armed) {
            ref.Schedule(when, SimTime::Zero(), tag);
        }
        armed.clear();
    };
    // Dispatch until every one-shot of both bursts has fired.
    const auto one_shots_fired = [&] {
        return std::count_if(real_log.begin(), real_log.end(),
                             [](const auto& entry) { return entry.first >= 0; });
    };
    while (one_shots_fired() < 2 * burst) {
        step();
    }
    EXPECT_EQ(real_log, ref_log);
    EXPECT_TRUE(queue.Cancel(series));
    EXPECT_TRUE(queue.Empty());

    // The series' record never moved while the slab grew beneath it.
    ASSERT_GE(record_addresses.size(), 2u);
    for (const void* address : record_addresses) {
        EXPECT_EQ(address, record_addresses.front());
    }
    EXPECT_GT(queue.SlabSize(), static_cast<size_t>(EventQueue::kChunkSlots));
    EXPECT_LE(queue.SlabSize(), peak_pending);

    // A later wave as large as a burst and its series reuses the freed
    // records: churn does not grow the slab.
    const size_t grown = queue.SlabSize();
    for (int i = 0; i < burst + 1; ++i) {
        queue.Schedule(SimTime::Millis(10) + SimTime::Micros(i), [] {});
    }
    while (!queue.Empty()) {
        queue.RunNext();
    }
    EXPECT_EQ(queue.SlabSize(), grown);
}

TEST(EventQueuePropertyTest, SteadyStateDispatchDoesNotAllocate)
{
    // The tentpole contract: after warmup, periodic dispatch and one-shot
    // churn touch the heap zero times per event.
    EventQueue queue;
    uint64_t fired = 0;
    for (int i = 0; i < 8; ++i) {
        queue.ScheduleEvery(SimTime::Micros(100 + i),
                            SimTime::Micros(191 + 2 * i),
                            [&fired] { ++fired; });
    }
    struct Chain {
        EventQueue* queue;
        SimTime at;
        uint64_t* fired;
        void
        Fire()
        {
            *fired += 1;
            at = at + SimTime::Micros(197);
            queue->Schedule(at, [this] { Fire(); });
        }
    };
    Chain chain{&queue, SimTime::Micros(50), &fired};
    queue.Schedule(chain.at, [&chain] { chain.Fire(); });

    // Warmup: grow the slab, the heap vector and any lazy library state.
    for (int i = 0; i < 10'000; ++i) {
        queue.RunNext();
    }

    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    const uint64_t fired_before = fired;
    for (int i = 0; i < 100'000; ++i) {
        queue.RunNext();
    }
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocs, 0u) << "steady-state dispatch must not allocate";
    EXPECT_EQ(fired - fired_before, 100'000u);
}

}  // namespace
}  // namespace aeo
