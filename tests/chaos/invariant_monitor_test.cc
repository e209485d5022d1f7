/**
 * The invariant-monitor catalogue test. Every InvariantMonitor subclass
 * must be exercised here BY CLASS NAME — the aeo-lint `monitor-catalogue`
 * rule fails the build when a subclass in src/ never appears in this file,
 * so a new monitor cannot ship without a behavioural test.
 */
#include "chaos/invariant_monitor.h"

#include <memory>
#include <vector>

#include "gtest/gtest.h"

namespace aeo::chaos {
namespace {

/** A healthy cycle: on-target, verified consistent deliveries, NORMAL. */
struct CycleFixture {
    ControlCycleRecord record;
    std::vector<platform::DwellDelivery> deliveries;
    CycleContext context;

    CycleFixture()
    {
        record.time_s = 2.0;
        record.measured_gips = 1.0;
        record.temp_c = 40.0;
        platform::DwellDelivery dwell;
        dwell.cpu.attempted = true;
        dwell.cpu.write_ok = true;
        dwell.cpu.verified = true;
        dwell.cpu.requested_level = 10;
        dwell.cpu.delivered_level = 10;
        deliveries.push_back(dwell);
        context.cycle_index = 3;
        context.record = &record;
        context.deliveries = &deliveries;
        context.state = ControllerState::kNormal;
        context.target_gips = 1.0;
        context.max_cpu_level = 17;
    }
};

TEST(InvariantMonitorTest, CatalogueHasExactlyTheDocumentedMonitors)
{
    const auto monitors = MakeDefaultMonitors();
    ASSERT_EQ(monitors.size(), 7u);
    EXPECT_EQ(monitors[0]->name(), "thermal-envelope");
    EXPECT_EQ(monitors[1]->name(), "qos-violation-run");
    EXPECT_EQ(monitors[2]->name(), "actuation-consistency");
    EXPECT_EQ(monitors[3]->name(), "state-legality");
    EXPECT_EQ(monitors[4]->name(), "watchdog-liveness");
    EXPECT_EQ(monitors[5]->name(), "deadline-miss-run");
    EXPECT_EQ(monitors[6]->name(), "stale-actuation");
}

TEST(InvariantMonitorTest, ThermalEnvelopeMonitorFiresAboveLimitOnly)
{
    ThermalEnvelopeMonitor monitor;
    CycleFixture fixture;
    fixture.record.temp_c = 55.0;  // at the 55.0 C limit: not over it
    monitor.OnCycle(fixture.context);
    EXPECT_TRUE(monitor.ok());

    fixture.record.temp_c = 55.1;
    monitor.OnCycle(fixture.context);
    EXPECT_FALSE(monitor.ok());
    EXPECT_EQ(monitor.first_violation_cycle(), 3);
    EXPECT_EQ(monitor.violations().size(), 1u);
}

TEST(InvariantMonitorTest, QosViolationRunMonitorBoundsHealthyShortfallRuns)
{
    QosViolationRunMonitor monitor;
    CycleFixture fixture;

    // Exactly 25% under a 1.0 target is inside the tolerance: no run starts.
    fixture.record.measured_gips = 0.75;
    for (uint64_t i = 0; i < 20; ++i) {
        monitor.OnCycle(fixture.context);
    }
    EXPECT_TRUE(monitor.ok());

    // Fifteen consecutive shortfall cycles: at the bound, not over it.
    fixture.record.measured_gips = 0.74;
    for (uint64_t i = 0; i < 15; ++i) {
        fixture.context.cycle_index = i;
        monitor.OnCycle(fixture.context);
    }
    EXPECT_TRUE(monitor.ok());

    // The sixteenth breaks the bound; one report per run, not per cycle.
    for (uint64_t i = 15; i < 20; ++i) {
        fixture.context.cycle_index = i;
        monitor.OnCycle(fixture.context);
    }
    EXPECT_EQ(monitor.violations().size(), 1u);
    EXPECT_EQ(monitor.first_violation_cycle(), 15);
}

TEST(InvariantMonitorTest, QosViolationRunMonitorSkipsDegradedAndSafeMode)
{
    QosViolationRunMonitor monitor;
    CycleFixture fixture;
    fixture.record.measured_gips = 0.1;

    // Each run below outlasts the 15-cycle bound.
    fixture.record.safe_mode = true;  // declared unreachable: not a lie
    for (uint64_t i = 0; i < 20; ++i) {
        fixture.context.cycle_index = i;
        monitor.OnCycle(fixture.context);
    }
    EXPECT_TRUE(monitor.ok());

    fixture.record.safe_mode = false;
    fixture.record.degraded = true;  // no trustworthy measurement
    for (uint64_t i = 20; i < 40; ++i) {
        fixture.context.cycle_index = i;
        monitor.OnCycle(fixture.context);
    }
    EXPECT_TRUE(monitor.ok());
}

TEST(InvariantMonitorTest, ActuationConsistencyMonitorCatchesIncoherence)
{
    ActuationConsistencyMonitor monitor;
    CycleFixture fixture;
    monitor.OnCycle(fixture.context);
    EXPECT_TRUE(monitor.ok());

    // Delivered above requested: read-back and actuation disagree upward.
    fixture.deliveries[0].cpu.delivered_level = 12;
    fixture.context.cycle_index = 4;
    monitor.OnCycle(fixture.context);
    EXPECT_EQ(monitor.violations().size(), 1u);
    EXPECT_EQ(monitor.first_violation_cycle(), 4);

    // Verified although the write failed.
    fixture.deliveries[0].cpu.delivered_level = 10;
    fixture.deliveries[0].cpu.write_ok = false;
    monitor.OnCycle(fixture.context);
    EXPECT_EQ(monitor.violations().size(), 2u);

    // A request above the platform ceiling.
    fixture.deliveries[0].cpu.write_ok = true;
    fixture.deliveries[0].cpu.requested_level = 18;
    fixture.deliveries[0].cpu.delivered_level = 17;
    monitor.OnCycle(fixture.context);
    EXPECT_GE(monitor.violations().size(), 3u);
}

TEST(InvariantMonitorTest, ActuationConsistencyMonitorFlagsCapBeliefDrift)
{
    ActuationConsistencyMonitor monitor;
    CycleFixture fixture;
    fixture.record.cpu_cap_level = 4;       // controller's belief...
    fixture.context.true_cpu_cap_level = 3; // ...vs the kernel's cap

    // Two divergent cycles are a tolerated read/poll race.
    for (uint64_t i = 0; i < 2; ++i) {
        fixture.context.cycle_index = i;
        monitor.OnCycle(fixture.context);
    }
    EXPECT_TRUE(monitor.ok());

    // The third makes it a mask bug; one report per divergence episode.
    for (uint64_t i = 2; i < 6; ++i) {
        fixture.context.cycle_index = i;
        monitor.OnCycle(fixture.context);
    }
    EXPECT_EQ(monitor.violations().size(), 1u);
    EXPECT_EQ(monitor.first_violation_cycle(), 2);
}

TEST(InvariantMonitorTest, ActuationConsistencyMonitorEndsCapEpisodeOnFallback)
{
    ActuationConsistencyMonitor monitor;
    CycleFixture fixture;
    fixture.record.cpu_cap_level = 4;
    fixture.context.true_cpu_cap_level = 3;

    // Two divergent cycles, then a fallback tick whose record carries no
    // cap (an early fallback): no third divergent cycle, no verdict.
    monitor.OnCycle(fixture.context);
    monitor.OnCycle(fixture.context);
    fixture.record.cpu_cap_level = -1;
    fixture.context.fallback_engaged = true;
    monitor.OnCycle(fixture.context);
    EXPECT_TRUE(monitor.ok());

    // After re-engagement the run starts over: two more are still grace.
    fixture.record.cpu_cap_level = 4;
    fixture.context.fallback_engaged = false;
    monitor.OnCycle(fixture.context);
    monitor.OnCycle(fixture.context);
    EXPECT_TRUE(monitor.ok());
    monitor.OnCycle(fixture.context);
    EXPECT_EQ(monitor.violations().size(), 1u);
}

TEST(InvariantMonitorTest, ActuationConsistencyMonitorToleratesBenignCaps)
{
    ActuationConsistencyMonitor monitor;
    CycleFixture fixture;

    // Believed below advertised: conservative clamp learning, not a bug.
    fixture.record.cpu_cap_level = 2;
    fixture.context.true_cpu_cap_level = 5;
    for (uint64_t i = 0; i < 10; ++i) {
        fixture.context.cycle_index = i;
        monitor.OnCycle(fixture.context);
    }
    EXPECT_TRUE(monitor.ok());

    // Uncapped belief (-1) while ground truth is absent (kNoCapLevel):
    // both normalize to the platform ceiling and agree.
    fixture.record.cpu_cap_level = -1;
    fixture.context.true_cpu_cap_level = platform::kNoCapLevel;
    monitor.OnCycle(fixture.context);
    EXPECT_TRUE(monitor.ok());

    // A one-cycle stale-high read during a staged descent resets cleanly.
    fixture.record.cpu_cap_level = 9;
    fixture.context.true_cpu_cap_level = 5;
    monitor.OnCycle(fixture.context);
    fixture.record.cpu_cap_level = 5;
    monitor.OnCycle(fixture.context);
    fixture.record.cpu_cap_level = 9;
    fixture.context.true_cpu_cap_level = 5;
    monitor.OnCycle(fixture.context);
    EXPECT_TRUE(monitor.ok());
}

TEST(InvariantMonitorTest, StateLegalityMonitorTracksIllegalDispatches)
{
    StateLegalityMonitor monitor;
    CycleFixture fixture;
    monitor.OnCycle(fixture.context);
    EXPECT_TRUE(monitor.ok());

    fixture.context.illegal_dispatches = 1;
    fixture.context.cycle_index = 5;
    monitor.OnCycle(fixture.context);
    EXPECT_EQ(monitor.violations().size(), 1u);

    // Counter steady again: no new report.
    fixture.context.cycle_index = 6;
    monitor.OnCycle(fixture.context);
    EXPECT_EQ(monitor.violations().size(), 1u);
}

TEST(InvariantMonitorTest, StateLegalityMonitorChecksFallbackFlagAgreement)
{
    StateLegalityMonitor monitor;
    CycleFixture fixture;
    fixture.context.state = ControllerState::kProbe;
    fixture.context.fallback_engaged = false;  // flag disagrees with state
    monitor.OnCycle(fixture.context);
    EXPECT_FALSE(monitor.ok());

    StateLegalityMonitor agree;
    fixture.context.fallback_engaged = true;
    agree.OnCycle(fixture.context);
    EXPECT_TRUE(agree.ok());
}

TEST(InvariantMonitorTest, WatchdogLivenessMonitorWantsProbesAfterFallback)
{
    CycleFixture fixture;
    fixture.context.fallback_engaged = true;
    fixture.context.cycle_index = 10;
    fixture.record.time_s = 20.0;

    FinishContext finish;
    finish.fallback_engaged = true;
    finish.reengage_enabled = true;
    finish.probe_period_s = 10.0;
    finish.probes = 0;  // not one probe since the fallback at 20 s

    // 19.9 s in fallback is short of the 2-probe-period grace: no verdict.
    WatchdogLivenessMonitor early;
    early.OnCycle(fixture.context);
    finish.elapsed_s = 39.9;
    early.OnFinish(finish);
    EXPECT_TRUE(early.ok());

    // 20 s is two probe periods without a probe: a silent grave.
    WatchdogLivenessMonitor monitor;
    monitor.OnCycle(fixture.context);
    finish.elapsed_s = 40.0;
    monitor.OnFinish(finish);
    EXPECT_FALSE(monitor.ok());
    EXPECT_EQ(monitor.first_violation_cycle(), 10);
}

TEST(InvariantMonitorTest, WatchdogLivenessMonitorToleratesProbedFallback)
{
    WatchdogLivenessMonitor monitor;
    CycleFixture fixture;
    fixture.context.fallback_engaged = true;
    monitor.OnCycle(fixture.context);

    FinishContext finish;
    finish.fallback_engaged = true;
    finish.reengage_enabled = true;
    finish.elapsed_s = 120.0;
    finish.probe_period_s = 10.0;
    finish.probes = 9;
    monitor.OnFinish(finish);
    EXPECT_TRUE(monitor.ok());

    // With re-engagement configured off, a terminal fallback is fine too.
    WatchdogLivenessMonitor terminal;
    terminal.OnCycle(fixture.context);
    FinishContext no_reengage = finish;
    no_reengage.reengage_enabled = false;
    no_reengage.probes = 0;
    terminal.OnFinish(no_reengage);
    EXPECT_TRUE(terminal.ok());
}

TEST(InvariantMonitorTest, DeadlineMissRunMonitorBoundsMissStorms)
{
    DeadlineMissRunMonitor monitor;
    CycleFixture fixture;
    fixture.record.tick_kind = platform::TickKind::kMissed;
    fixture.record.tick_lateness_s = 1.5;

    // Six consecutive missed cycles: at the bound, not over it.
    for (uint64_t i = 0; i < 6; ++i) {
        fixture.context.cycle_index = i;
        monitor.OnCycle(fixture.context);
    }
    EXPECT_TRUE(monitor.ok());

    // The seventh breaks the bound; one report per storm, not per cycle.
    for (uint64_t i = 6; i < 10; ++i) {
        fixture.context.cycle_index = i;
        monitor.OnCycle(fixture.context);
    }
    EXPECT_EQ(monitor.violations().size(), 1u);
    EXPECT_EQ(monitor.first_violation_cycle(), 6);
}

TEST(InvariantMonitorTest, DeadlineMissRunMonitorResetsOnFallbackOrOnTime)
{
    DeadlineMissRunMonitor monitor;
    CycleFixture fixture;
    fixture.record.tick_kind = platform::TickKind::kMissed;
    const auto miss = [&](int n) {
        for (int i = 0; i < n; ++i) {
            monitor.OnCycle(fixture.context);
        }
    };

    // Six misses, then a fallback: the controller reacted inside the
    // bound, which is exactly the behaviour the invariant demands.
    miss(6);
    fixture.context.fallback_engaged = true;
    monitor.OnCycle(fixture.context);
    fixture.context.fallback_engaged = false;

    // Six more misses, an on-time tick, six more: runs never exceed 6.
    miss(6);
    fixture.record.tick_kind = platform::TickKind::kOnTime;
    monitor.OnCycle(fixture.context);
    fixture.record.tick_kind = platform::TickKind::kMissed;
    miss(6);
    EXPECT_TRUE(monitor.ok());
}

TEST(InvariantMonitorTest, StaleActuationMonitorCatchesPostSuspendSteering)
{
    StaleActuationMonitor monitor;
    CycleFixture fixture;
    fixture.record.tick_kind = platform::TickKind::kSuspendGap;
    fixture.record.tick_lateness_s = 30.0;
    fixture.record.epochs_skipped = 15;
    fixture.record.perf_samples = 40;

    // Quarantined resume: stale guard engaged, measurement not steered on.
    fixture.record.stale_guard = true;
    fixture.record.degraded = true;
    monitor.OnCycle(fixture.context);
    EXPECT_TRUE(monitor.ok());

    // The bug: the pre-suspend perf window steered the actuation.
    fixture.record.stale_guard = false;
    fixture.record.degraded = false;
    fixture.context.cycle_index = 7;
    monitor.OnCycle(fixture.context);
    EXPECT_FALSE(monitor.ok());
    EXPECT_EQ(monitor.first_violation_cycle(), 7);
}

TEST(InvariantMonitorTest, StaleActuationMonitorIgnoresOrdinaryCycles)
{
    StaleActuationMonitor monitor;
    CycleFixture fixture;
    fixture.record.perf_samples = 40;

    // On-time and merely-late cycles are not suspend gaps.
    fixture.record.tick_kind = platform::TickKind::kOnTime;
    monitor.OnCycle(fixture.context);
    fixture.record.tick_kind = platform::TickKind::kMissed;
    monitor.OnCycle(fixture.context);

    // A suspend-gap resume with an empty perf window has nothing stale.
    fixture.record.tick_kind = platform::TickKind::kSuspendGap;
    fixture.record.perf_samples = 0;
    monitor.OnCycle(fixture.context);

    // Fallback cycles do not actuate at all.
    fixture.record.perf_samples = 40;
    fixture.context.fallback_engaged = true;
    monitor.OnCycle(fixture.context);
    EXPECT_TRUE(monitor.ok());
}

}  // namespace
}  // namespace aeo::chaos
