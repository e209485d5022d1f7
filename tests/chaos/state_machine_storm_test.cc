/**
 * Property test: the controller mode machine under chaos-shaped event
 * storms. Every storm step is drawn from the events the transition table
 * declares legal in the current state, so a correct machine must accept
 * the whole walk without a single illegal-dispatch increment, and its
 * fallback flag must agree with PROBE/FALLBACK_STOCK at every step.
 */
#include <algorithm>
#include <vector>

#include "chaos/chaos_rng.h"
#include "common/logging.h"
#include "core/controller_state_machine.h"
#include "gtest/gtest.h"

namespace aeo::chaos {
namespace {

constexpr int kStormLength = 400;
constexpr uint64_t kSeeds = 50;

/**
 * A chaos-shaped event sequence: a seeded random walk of @p length events
 * where each step is drawn from the events ActionFor() declares legal in
 * the current state (so a correct machine must accept every step), biased
 * toward the adversarial cycle of mismatch -> clamp -> watchdog -> probe.
 * Deterministic in @p seed.
 */
std::vector<ControllerEvent>
GenerateControllerEventStorm(uint64_t seed,
                             const StateMachineOptions& options, int length)
{
    ChaosRng rng(seed);
    ControllerStateMachine machine(options);
    std::vector<ControllerEvent> events;
    events.reserve(static_cast<size_t>(length));

    std::vector<ControllerEvent> legal;
    legal.reserve(kControllerEventCount);
    while (static_cast<int>(events.size()) < length) {
        legal.clear();
        for (int e = 0; e < kControllerEventCount; ++e) {
            const auto event = static_cast<ControllerEvent>(e);
            ControllerState next;
            if (ControllerStateMachine::ActionFor(machine.state(), event,
                                                  options, &next)) {
                legal.push_back(event);
            }
        }
        AEO_ASSERT(!legal.empty(), "state machine has a dead state");
        ControllerEvent pick =
            legal[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int>(legal.size()) - 1))];
        // Bias toward the adversarial spine (mismatch/watchdog/probe): a
        // second draw replaces a tame pick half the time, when available.
        if (rng.Bernoulli(0.5)) {
            for (const ControllerEvent candidate :
                 {ControllerEvent::kActuationMismatch,
                  ControllerEvent::kWatchdogTrip,
                  ControllerEvent::kProbeFailed, ControllerEvent::kProbeOk}) {
                if (std::find(legal.begin(), legal.end(), candidate) !=
                        legal.end() &&
                    rng.Bernoulli(0.5)) {
                    pick = candidate;
                    break;
                }
            }
        }
        // kControlStopped parks the machine in the terminal state and the
        // storm would flatline; keep the walk alive unless it is the only
        // legal move.
        if (pick == ControllerEvent::kControlStopped && legal.size() > 1) {
            continue;
        }
        machine.Dispatch(pick);
        events.push_back(pick);
    }
    return events;
}

TEST(StateMachineStormTest, LegalStormsNeverCountIllegalDispatches)
{
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const StateMachineOptions options;
        const std::vector<ControllerEvent> storm =
            GenerateControllerEventStorm(seed, options, kStormLength);
        ASSERT_EQ(storm.size(), static_cast<size_t>(kStormLength));
        ControllerStateMachine machine(options);
        for (const ControllerEvent event : storm) {
            const StateTransition transition = machine.Dispatch(event);
            EXPECT_TRUE(transition.legal)
                << "seed " << seed << ": "
                << ControllerEventName(event) << " illegal in "
                << ControllerStateName(machine.state());
        }
        EXPECT_EQ(machine.illegal_dispatch_count(), 0u) << "seed " << seed;
    }
}

TEST(StateMachineStormTest, FallbackFlagAlwaysMatchesState)
{
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const StateMachineOptions options;
        ControllerStateMachine machine(options);
        for (const ControllerEvent event :
             GenerateControllerEventStorm(seed, options, kStormLength)) {
            machine.Dispatch(event);
            const bool fallback_state =
                machine.state() == ControllerState::kProbe ||
                machine.state() == ControllerState::kFallbackStock;
            EXPECT_EQ(machine.fallback_engaged(), fallback_state);
        }
    }
}

TEST(StateMachineStormTest, StormsAreDeterministicInSeed)
{
    const StateMachineOptions options;
    const std::vector<ControllerEvent> a =
        GenerateControllerEventStorm(7, options, kStormLength);
    const std::vector<ControllerEvent> b =
        GenerateControllerEventStorm(7, options, kStormLength);
    EXPECT_EQ(a, b);
    const std::vector<ControllerEvent> c =
        GenerateControllerEventStorm(8, options, kStormLength);
    EXPECT_NE(a, c);
}

TEST(StateMachineStormTest, StormsWithoutReengagementStayLegal)
{
    StateMachineOptions options;
    options.reengage = false;  // PROBE unreachable; trips land terminal
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        ControllerStateMachine machine(options);
        for (const ControllerEvent event :
             GenerateControllerEventStorm(seed, options, kStormLength)) {
            machine.Dispatch(event);
        }
        EXPECT_EQ(machine.illegal_dispatch_count(), 0u) << "seed " << seed;
    }
}

TEST(StateMachineStormTest, StormsVisitTheAdversarialStates)
{
    // The bias toward mismatch/watchdog/probe events must actually drive
    // the walk through the fallback-and-recovery cycle, or the property
    // tests above would only ever exercise the happy path.
    bool saw_probe = false;
    bool saw_normal_again = false;
    const StateMachineOptions options;
    for (uint64_t seed = 1; seed <= kSeeds && !saw_normal_again; ++seed) {
        ControllerStateMachine machine(options);
        for (const ControllerEvent event :
             GenerateControllerEventStorm(seed, options, kStormLength)) {
            machine.Dispatch(event);
            if (machine.state() == ControllerState::kProbe) {
                saw_probe = true;
            } else if (saw_probe &&
                       machine.state() == ControllerState::kNormal) {
                saw_normal_again = true;
            }
        }
    }
    EXPECT_TRUE(saw_probe);
    EXPECT_TRUE(saw_normal_again);
}

}  // namespace
}  // namespace aeo::chaos
