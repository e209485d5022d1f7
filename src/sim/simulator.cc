#include "sim/simulator.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace aeo {

void
Simulator::RunUntil(SimTime deadline)
{
    AEO_ASSERT(deadline >= now_, "deadline in the past");
    stop_requested_ = false;
    SimTime next;
    uint64_t seq = 0;
    while (!stop_requested_ && queue_.NextIfAny(&next, &seq) &&
           next <= deadline) {
        if (clock_next_ <= next) {
            AdvanceSampleClock(next, seq);
        }
        now_ = next;
        queue_.RunNext();
    }
    if (!stop_requested_) {
        // Every tick up to the deadline, the one on it included, fires.
        if (clock_next_ <= deadline) {
            AdvanceSampleClock(deadline, std::numeric_limits<uint64_t>::max());
        }
        now_ = deadline;
    }
    if (clock_on_return_) {
        clock_on_return_();
    }
}

void
Simulator::StartSampleClock(SimTime period, EventCallback on_return)
{
    AEO_ASSERT(period > SimTime::Zero(), "period must be positive");
    AEO_ASSERT(!sample_clock_running(), "the sample clock is taken");
    clock_period_ = period;
    clock_next_ = now_ + period;
    clock_next_seq_ = queue_.next_seq();
    clock_ticks_ = 0;
    clock_on_return_ = std::move(on_return);
}

// aeo: hot-path
void
Simulator::AdvanceSampleClock(SimTime when, uint64_t seq)
{
    if (clock_next_ == when && clock_next_seq_ > seq) {
        return;
    }
    // The next tick fires, and so do its successors before `when`. Each
    // successor carries the queue's current next seq, as a series re-armed
    // now would, so one falling on `when` itself fires only if that seq
    // orders it first: at the deadline, not before a pending event.
    const uint64_t successor_seq = queue_.next_seq();
    const int64_t period = clock_period_.micros();
    const int64_t gap = (when - clock_next_).micros();
    int64_t fired = 1 + gap / period;
    if (gap > 0 && gap % period == 0 && successor_seq > seq) {
        --fired;
    }
    clock_ticks_ += static_cast<uint64_t>(fired);
    clock_next_ += clock_period_ * fired;
    clock_next_seq_ = successor_seq;
}

}  // namespace aeo
