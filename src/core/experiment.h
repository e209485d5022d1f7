/**
 * @file
 * The end-to-end experiment harness behind the paper's evaluation (§V):
 * run an application under the default governors, profile it offline, run
 * it again under the controller with the default performance as the target,
 * and compare energy and performance — the procedure that generates
 * Tables III, IV and V and Figures 4 and 5.
 */
#ifndef AEO_CORE_EXPERIMENT_H_
#define AEO_CORE_EXPERIMENT_H_

#include <string>

#include "apps/background_load.h"
#include "core/offline_profiler.h"
#include "core/online_controller.h"
#include "core/profile_table.h"
#include "core/scenarios.h"
#include "device/run_result.h"

namespace aeo {

/** Options for one default-vs-controller comparison. */
struct ExperimentOptions {
    /** Background load during profiling (the paper always profiles in BL). */
    BackgroundKind profile_load = BackgroundKind::kBaseline;
    /** Background load during both evaluation runs. */
    BackgroundKind run_load = BackgroundKind::kBaseline;
    /** CPU-only controller (§V-D ablation). */
    bool cpu_only = false;
    /** Sparse profiling + interpolation (§III-A); false = dense grid. */
    bool sparse_profiling = true;
    /** Runs averaged per profiled configuration. */
    int profile_runs = 3;
    /**
     * Measurement window per profiling run; Zero = use the app scenario's
     * cycle-covering default.
     */
    SimTime profile_duration = SimTime::Zero();
    /**
     * Post-profiling pruning threshold (§V-A): rows whose speedup advantage
     * over a cheaper row is below this fraction of the maximum speedup are
     * dropped from the table supplied to the controller. 0 disables.
     */
    double prune_epsilon = 0.01;
    /**
     * CPU governor for the baseline ("default") run. Empty = the Android
     * stock interactive governor, the paper's comparison point and the
     * byte-identical legacy path. Any registered governor name works —
     * e.g. "lulzactive" compares the controller against the community
     * governor instead (table3/table4 flag --baseline=lulzactive).
     */
    std::string baseline_cpu_governor;
    /** Controller tuning; target_gips is filled from the default run. */
    ControllerConfig controller;
    /** Base seed; default/profiling/controller runs use distinct streams. */
    uint64_t seed = 7;
    /**
     * The whole thread budget of a one-job plan: RunComparison() and
     * ProfileApp() fan out across it. Ignored inside a RunComparisons()
     * sweep, whose own BatchOptions is the budget, so fan-outs never nest.
     */
    BatchOptions batch;
};

/**
 * The options ProfileApp() and the experiment plan profile @p app_name
 * with: the scenario's admitted CPU levels and measurement window, the
 * profiling load, and seed + 1000. batch is left at its default.
 */
ProfilerOptions ProfilerOptionsFor(const std::string& app_name,
                                   const ExperimentOptions& options);

/** One entry in a RunComparisons() sweep. */
struct ComparisonJob {
    std::string app_name;
    ExperimentOptions options;
};

/** Everything one comparison produces. */
struct ExperimentOutcome {
    RunResult default_run;
    RunResult controller_run;
    /** The table the controller ran with: the profile, ε-pruned by the
     * job's prune_epsilon. */
    ProfileTable table;
    /** The profile as measured and reduced, before pruning. Jobs that
     * share a profile share this table. */
    ProfileTable unpruned_table;
    /** Performance change, percent (positive = controller faster). */
    double perf_delta_pct = 0.0;
    /** Energy savings, percent (positive = controller saves energy). */
    double energy_savings_pct = 0.0;
};

/** Runs the paper's evaluation procedure. */
class ExperimentHarness {
  public:
    explicit ExperimentHarness(DeviceFactory factory = MakeDefaultDeviceFactory());

    /** Runs @p app_name under the default governors (interactive+hwmon).
     * A non-empty @p cpu_governor replaces interactive on the CPU. */
    RunResult RunDefault(const std::string& app_name, BackgroundKind load,
                         uint64_t seed,
                         const std::string& cpu_governor = {}) const;

    /** Profiles @p app_name per its scenario. */
    ProfileTable ProfileApp(const std::string& app_name,
                            const ExperimentOptions& options) const;

    /**
     * Runs @p app_name under the controller with the given table and
     * target.
     */
    RunResult RunWithController(const std::string& app_name, const ProfileTable& table,
                                double target_gips, const ExperimentOptions& options,
                                uint64_t seed) const;

    /**
     * The full §V procedure for one app: default → profile → controller →
     * compare. This is the plan below with the one job, and options.batch
     * as its thread budget.
     */
    ExperimentOutcome RunComparison(const std::string& app_name,
                                    const ExperimentOptions& options = {}) const;

    /**
     * Runs a sweep of comparisons as one two-stage plan and returns the
     * outcomes in @p jobs order.
     *
     *  - Stage 1 is one fan-out over every distinct stock run and every
     *    (configuration, run) cell of every distinct profile, longest
     *    simulated window first. A stock run is keyed by (app, run_load,
     *    seed, baseline_cpu_governor) and a profile by (app,
     *    ProfilerOptionsFor()), so jobs that share one measure it once.
     *    Each profile is then reduced in run order and pruned per job.
     *  - Stage 2 is one fan-out over the jobs' controller runs, longest
     *    first. It starts when stage 1 has finished, because each
     *    controller run needs its stock run's performance and its table.
     *
     * @p batch is the whole thread budget (BatchOptions{1} runs everything
     * on the calling thread, in plan order); the jobs' own
     * ExperimentOptions::batch is ignored. Every outcome is bit-identical
     * to RunDefault → ProfileApp → RunWithController(seed + 2000) at any
     * worker count.
     */
    std::vector<ExperimentOutcome> RunComparisons(
        const std::vector<ComparisonJob>& jobs,
        const BatchOptions& batch = {}) const;

  private:
    void DriveRun(Device* device, const AppScenario& scenario) const;

    DeviceFactory factory_;
};

}  // namespace aeo

#endif  // AEO_CORE_EXPERIMENT_H_
