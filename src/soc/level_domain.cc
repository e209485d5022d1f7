#include "soc/level_domain.h"

#include <utility>

#include "common/logging.h"

namespace aeo {

void
LevelDomain::SetLevel(int level)
{
    AEO_ASSERT(level >= 0 && level < num_levels(), "level %d out of [0, %d)", level,
               num_levels());
    if (level == level_) {
        return;
    }
    NotifyPreChange();
    level_ = level;
    ++transition_count_;
    NotifyPostChange();
}

std::vector<double>
LevelDomain::ResidencyFractions() const
{
    double total = 0.0;
    for (const double seconds : residency_s_) {
        total += seconds;
    }
    std::vector<double> fractions(residency_s_.size(), 0.0);
    for (size_t i = 0; total > 0.0 && i < fractions.size(); ++i) {
        fractions[i] = residency_s_[i] / total;
    }
    return fractions;
}

void
LevelDomain::SetPreChangeListener(std::function<void()> listener)
{
    pre_change_ = std::move(listener);
}

void
LevelDomain::SetPostChangeListener(std::function<void()> listener)
{
    post_change_ = std::move(listener);
}

void
LevelDomain::NotifyPreChange() const
{
    if (pre_change_) {
        pre_change_();
    }
}

void
LevelDomain::NotifyPostChange() const
{
    if (post_change_) {
        post_change_();
    }
}

}  // namespace aeo
