/**
 * Property tests over seeded suspend/resume interleavings: for dozens of
 * randomized gap schedules, the hardened controller quarantines every
 * suspend-gap cycle, never lets a sleep trip the watchdog or poison the
 * Kalman/drift estimators, and the watchdog re-engagement path still
 * completes with gaps interleaved through the probe phase.
 */
#include "core/online_controller.h"

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "platform/clock.h"
#include "platform/fake_platform.h"

namespace aeo {
namespace {

using platform::FakePlatform;

/** Forwards to the fake's scheduler, adding one scripted delay per tick. */
class DelayingScheduler final : public platform::TickScheduler {
  public:
    explicit DelayingScheduler(platform::TickScheduler* base) : base_(base) {}

    platform::TickHandle ScheduleTick(SimTime when,
                                      std::function<void()> fn) override
    {
        SimTime delay = SimTime::Zero();
        if (!delays_.empty()) {
            delay = delays_.front();
            delays_.pop_front();
        }
        return base_->ScheduleTick(when + delay, std::move(fn));
    }

    void CancelTick(platform::TickHandle handle) override
    {
        base_->CancelTick(handle);
    }

    void PushDelay(SimTime delay) { delays_.push_back(delay); }

  private:
    platform::TickScheduler* base_;
    std::deque<SimTime> delays_;
};

class GappyPlatform final : public platform::Platform {
  public:
    GappyPlatform() : scheduler_(&fake_.ticks()) {}

    Simulator& sim() { return fake_.sim(); }
    platform::Clock& clock() override { return fake_.clock(); }
    platform::TickScheduler& ticks() override { return scheduler_; }
    platform::PerfReader& perf() override { return fake_.perf(); }
    platform::Actuator& actuator() override { return fake_.actuator(); }
    platform::GovernorControl& governors() override
    {
        return fake_.governors();
    }
    platform::Thermals& thermals() override { return fake_.thermals(); }
    int max_cpu_level() const override { return fake_.max_cpu_level(); }
    void SetControllerOverheadPower(double mw) override
    {
        fake_.SetControllerOverheadPower(mw);
    }
    void Sync() override { fake_.Sync(); }

    FakePlatform& fake() { return fake_; }
    DelayingScheduler& delays() { return scheduler_; }

  private:
    FakePlatform fake_;
    DelayingScheduler scheduler_;
};

ProfileTable
ThreeRowTable()
{
    std::vector<ProfileEntry> entries = {
        {SystemConfig{0, kBwDefaultGovernor}, 1.0, Milliwatts(1000.0)},
        {SystemConfig{1, kBwDefaultGovernor}, 1.3, Milliwatts(1300.0)},
        {SystemConfig{2, kBwDefaultGovernor}, 1.6, Milliwatts(1700.0)},
    };
    return ProfileTable("fake", std::move(entries), 0.1);
}

TEST(SuspendResumePropertyTest, RandomGapSchedulesNeverPoisonTheLoop)
{
    std::mt19937_64 rng(0xdead5eed2026ull);
    std::uniform_real_distribution<double> gap_s(6.5, 60.0);
    std::uniform_real_distribution<double> coin(0.0, 1.0);

    for (int trial = 0; trial < 24; ++trial) {
        GappyPlatform plat;
        constexpr int kTicks = 14;
        int gap_count = 0;
        for (int i = 0; i < kTicks; ++i) {
            // ~1 in 3 ticks sleeps through; the rest are on time. On the
            // 2 s cycle any delay >= 6 s is a suspend gap.
            if (coin(rng) < 0.35) {
                ++gap_count;
                plat.delays().PushDelay(SimTime::FromSecondsF(gap_s(rng)));
            } else {
                plat.delays().PushDelay(SimTime::Zero());
            }
            plat.fake().PushPerfWindow(0.1, 100);
        }
        ControllerConfig config;
        config.target_gips = 0.1;
        OnlineController controller(&plat, ThreeRowTable(), config);
        controller.Start();
        plat.sim().RunUntil(SimTime::FromSeconds(20 * 60));
        controller.Stop();

        // Every suspend-gap cycle was quarantined: stale guard up, cycle
        // degraded, estimate held; and sleeps alone never tripped the
        // watchdog or the storm fallback.
        SCOPED_TRACE(trial);
        EXPECT_FALSE(controller.fallback_engaged());
        EXPECT_EQ(controller.suspend_gap_cycle_count(),
                  static_cast<uint64_t>(gap_count));
        uint64_t stale = 0;
        for (const ControlCycleRecord& record : controller.history()) {
            if (record.tick_kind == platform::TickKind::kSuspendGap) {
                EXPECT_TRUE(record.stale_guard);
                EXPECT_TRUE(record.degraded);
                ++stale;
            }
            EXPECT_TRUE(std::isfinite(record.base_speed_estimate));
            EXPECT_GT(record.base_speed_estimate, 0.0);
        }
        EXPECT_EQ(controller.stale_guard_cycle_count(), stale);
        // Drift corrections stay sane: gap-straddling residuals were
        // quarantined, so no correction can have run away.
        for (size_t row = 0; row < controller.table().entries().size();
             ++row) {
            EXPECT_TRUE(
                std::isfinite(controller.drift().PowerCorrection(row)));
            EXPECT_TRUE(
                std::isfinite(controller.drift().SpeedupCorrection(row)));
            EXPECT_GT(controller.drift().PowerCorrection(row), 0.0);
            EXPECT_GT(controller.drift().SpeedupCorrection(row), 0.0);
        }
    }
}

TEST(SuspendResumePropertyTest, ReengagementCompletesAcrossGapSchedules)
{
    std::mt19937_64 rng(0xbadc0ffee5eedull);
    std::uniform_real_distribution<double> gap_s(6.5, 30.0);
    std::uniform_real_distribution<double> coin(0.0, 1.0);

    for (int trial = 0; trial < 12; ++trial) {
        GappyPlatform plat;
        // A healthy first cycle, then the watchdog trips on consecutive
        // failed applies; the probe phase runs under a random gap schedule.
        // The first two ticks are on time so the trip itself is
        // deterministic — the randomness exercises the probes after it.
        plat.delays().PushDelay(SimTime::Zero());
        plat.delays().PushDelay(SimTime::Zero());
        for (int i = 0; i < 38; ++i) {
            plat.fake().PushPerfWindow(0.1, 100);
            if (coin(rng) < 0.3) {
                plat.delays().PushDelay(SimTime::FromSecondsF(gap_s(rng)));
            } else {
                plat.delays().PushDelay(SimTime::Zero());
            }
        }
        ControllerConfig config;
        config.target_gips = 0.1;
        config.watchdog_threshold = 2;
        config.reengage_probe_cycles = 2;
        config.reengage_successes = 2;
        OnlineController controller(&plat, ThreeRowTable(), config);
        controller.Start();

        // Trip the watchdog after the first healthy cycle. Re-engagement
        // later resets the failure tracking, so the trip happens once and
        // the rest of the run exercises probing under the gap schedule.
        plat.sim().RunUntil(SimTime::FromSeconds(3));
        plat.fake().fake_actuator().ScriptConsecutiveFailures(2);
        plat.sim().RunUntil(SimTime::FromSeconds(20 * 60));
        controller.Stop();

        // Degraded mode is never a silent grave, gaps or not: the probes
        // eventually re-engage control (reengage_count >= 1 also proves
        // the fallback actually happened).
        SCOPED_TRACE(trial);
        EXPECT_GE(controller.reengage_count(), 1u);
        EXPECT_FALSE(controller.fallback_engaged());
    }
}

}  // namespace
}  // namespace aeo
