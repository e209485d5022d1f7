#include "kernel/governors/passive.h"

#include <memory>
#include <string>

namespace aeo {

namespace {

/** Passive governor actuated from userspace. */
class UserspaceGovernor : public DvfsGovernor {
  public:
    explicit UserspaceGovernor(DvfsPolicy* policy) : policy_(policy) {}

    std::string name() const override { return "userspace"; }
    /** Keeps the current level until told otherwise, like Linux. */
    void Start() override {}
    void Stop() override {}

    bool
    SetTargetLevel(int level) override
    {
        policy_->RequestLevel(level);
        return true;
    }

  private:
    DvfsPolicy* policy_;
};

/** Pins the upper scaling limit. */
class PerformanceGovernor : public DvfsGovernor {
  public:
    explicit PerformanceGovernor(DvfsPolicy* policy) : policy_(policy) {}

    std::string name() const override { return "performance"; }
    void Start() override { policy_->RequestLevel(policy_->max_level_limit()); }
    void Stop() override {}

  private:
    DvfsPolicy* policy_;
};

/** Pins the lower scaling limit. */
class PowersaveGovernor : public DvfsGovernor {
  public:
    explicit PowersaveGovernor(DvfsPolicy* policy) : policy_(policy) {}

    std::string name() const override { return "powersave"; }
    void Start() override { policy_->RequestLevel(policy_->min_level_limit()); }
    void Stop() override {}

  private:
    DvfsPolicy* policy_;
};

}  // namespace

std::unique_ptr<DvfsGovernor>
MakeUserspaceGovernor(DvfsPolicy* policy)
{
    return std::make_unique<UserspaceGovernor>(policy);
}

std::unique_ptr<DvfsGovernor>
MakePerformanceGovernor(DvfsPolicy* policy)
{
    return std::make_unique<PerformanceGovernor>(policy);
}

std::unique_ptr<DvfsGovernor>
MakePowersaveGovernor(DvfsPolicy* policy)
{
    return std::make_unique<PowersaveGovernor>(policy);
}

}  // namespace aeo
