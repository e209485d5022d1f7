#include "kernel/loadavg.h"

namespace aeo {

LoadAvg::LoadAvg(double resident_tasks)
    : resident_tasks_(resident_tasks), value_(resident_tasks)
{
    AEO_ASSERT(resident_tasks >= 0.0, "negative resident task pressure");
}

void
LoadAvg::Fold(double runnable)
{
    AEO_ASSERT(runnable >= 0.0, "negative runnable count");
    // calc_load(): load·EXP_1 + active·(FIXED_1 − EXP_1), over FIXED_1.
    const double active = resident_tasks_ + runnable;
    while (since_fold_ >= kLoadFreq) {
        since_fold_ -= kLoadFreq;
        value_ = value_ * kDecay + active * (1.0 - kDecay);
    }
}

}  // namespace aeo
