/**
 * @file
 * A forwarding Platform decorator: passes every interface call through to
 * an inner Platform untouched. Chaos tests subclass it to plant a bug in
 * exactly one seam — e.g. a Thermals wrapper whose ReadCpuCapLevel()
 * off-by-ones the feasible-set mask — while everything else behaves like
 * the real platform, which is what makes a campaign's verdict attributable
 * to the planted defect alone.
 */
#ifndef AEO_CHAOS_PLATFORM_DECORATOR_H_
#define AEO_CHAOS_PLATFORM_DECORATOR_H_

#include "platform/clock.h"
#include "platform/platform.h"

namespace aeo::chaos {

/** Forwards everything to @p inner (which must outlive the decorator). */
class ForwardingPlatform : public platform::Platform {
  public:
    explicit ForwardingPlatform(platform::Platform* inner) : inner_(inner) {}

    platform::Clock& clock() override { return inner_->clock(); }
    platform::PerfReader& perf() override { return inner_->perf(); }
    platform::Actuator& actuator() override { return inner_->actuator(); }
    platform::GovernorControl& governors() override
    {
        return inner_->governors();
    }
    platform::Thermals& thermals() override { return inner_->thermals(); }
    int max_cpu_level() const override { return inner_->max_cpu_level(); }
    int num_cpu_clusters() const override { return inner_->num_cpu_clusters(); }
    int max_little_level() const override { return inner_->max_little_level(); }
    void SetControllerOverheadPower(double mw) override
    {
        inner_->SetControllerOverheadPower(mw);
    }
    void Sync() override { inner_->Sync(); }

  protected:
    platform::Platform* inner() { return inner_; }

  private:
    platform::Platform* inner_;
};

}  // namespace aeo::chaos

#endif  // AEO_CHAOS_PLATFORM_DECORATOR_H_
