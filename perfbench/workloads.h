/**
 * @file
 * The benchmark's workloads. Each derives every app, profiler, device and
 * campaign seed from one root seed and runs in one process with a fixed
 * worker count that includes inner profiling threads:
 *
 *  - nexus6_eval     — §V / Table III on the Nexus 6: per app, stock run →
 *                      sparse profile (3 runs) → controller run;
 *  - biglittle_eval  — Table VI on the Exynos 5433: per app, interactive and
 *                      lulzactive runs → hull-pruned het-grid profile →
 *                      controller run with banking and slew;
 *  - chaos_campaigns — 64 seeded full-length AngryBirds chaos campaigns with
 *                      thermal modelling, after a clean profile and target
 *                      run in set-up.
 *
 * A pass is one complete run of the workload's timed phase. RunPass(nullptr)
 * goes through the product's batch entry points (RunComparisons, RunDefault,
 * RunWithController, RunCampaign); RunPass(tracer) drives Device, SimPlatform
 * and OnlineController itself with spans around every layer call. Both
 * produce the same PassOutput, fingerprint included, bit for bit.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/campaign.h"
#include "core/profile_table.h"
#include "device/device.h"
#include "device/run_result.h"
#include "trace.h"

namespace perfbench {

/** Settings a workload derives its inputs and fan-out from. */
struct BenchConfig {
    uint64_t seed = 2017;
    /** Worker threads for the whole workload, inner profiling included. */
    int workers = 4;
};

/** One application's evaluation. */
struct AppOutcome {
    std::string app;
    /** The stock interactive run the controller's target comes from. */
    aeo::RunResult baseline;
    /** The lulzactive run (biglittle_eval only). */
    std::optional<aeo::RunResult> alt_baseline;
    aeo::RunResult controller;
    /** The table handed to the controller (after pruning). */
    aeo::ProfileTable table;
    /** Measured configurations × runs per configuration. */
    size_t profiled_configs = 0;
    int profile_runs = 0;
    /** Required speedups of every control cycle (traced passes only). */
    std::vector<double> required_speedups;
};

/** Layer counters a traced pass collects (all zero when untraced). */
struct LayerCounts {
    uint64_t device_builds = 0;
    /** Monsoon samples and dispatched events on the devices the traced
     * pass drives itself (stock and controller runs). */
    uint64_t monitor_samples = 0;
    uint64_t driven_events = 0;
    /** Actuation health of the controller runs / campaigns. */
    uint64_t platform_writes = 0;
    uint64_t platform_failed_ops = 0;
    uint64_t cycles = 0;
    uint64_t degraded_cycles = 0;
    uint64_t safe_mode_cycles = 0;
    uint64_t fallbacks = 0;
    /** Configurations the pass (or, for chaos_campaigns, set-up) profiled. */
    uint64_t profile_configs = 0;

    void Add(const LayerCounts& other);
};

/** Everything one pass produced. */
struct PassOutput {
    std::vector<AppOutcome> apps;
    std::vector<aeo::chaos::CampaignReport> campaigns;
    /** Σ simulated device-seconds of every device run in the pass. */
    double sim_seconds = 0.0;
    /** Operations (device runs and campaigns) attempted, and those that
     * failed to run: no work done, or a batch app past its cap. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Campaigns that ran but reported an invariant violation: the chaos
     * verdicts. They count in fail_frac, not in failed. */
    uint64_t violated = 0;
    /** Invariant violations: outputs that are incorrect, not just failed. */
    std::vector<std::string> problems;
    /** Exact image of every simulated output of the pass. */
    std::string fingerprint;
    LayerCounts counts;
};

/** Simulated quality of one pass, for the report. */
struct Quality {
    /** 1 − Σ controller energy ÷ Σ baseline energy, percent. */
    double energy_savings_pct = 0.0;
    /** Worst app's (or campaign's) performance change vs baseline, %. */
    double perf_delta_pct = 0.0;
    /** Mean |ours − paper| energy savings vs Table III, pp; empty when the
     * workload has no published reference. */
    std::optional<double> paper_err_pp;
    /** Signed (Σ measured − Σ exact) ÷ Σ exact energy, percent, over every
     * stock and controller run whose meter reading is available. */
    double meter_err_pct = 0.0;
    /** Σ DVFS transitions over the same runs. */
    uint64_t dvfs_transitions = 0;
};

/** Inputs of the standalone probes, chosen by the workload. */
struct ProbeInputs {
    /** The workload's device, seeded with the run's seed. */
    aeo::DeviceConfig device_config;
    /** Fixed (app, configuration) sample of the workload's grid. */
    std::vector<std::pair<std::string, aeo::SystemConfig>> pinned_sample;
    /** (table, required speedups) replayed through the optimizer. */
    std::vector<std::pair<aeo::ProfileTable, std::vector<double>>> replays;
};

/** One benchmark workload. */
class Workload {
  public:
    virtual ~Workload() = default;

    /** Builds every input of the timed phase from the seed. Repeatable: the
     * benchmark calls it several times to time set-up, also between passes,
     * and every pass must still reproduce the first. Layer calls made
     * here are recorded as spans of job -1 when @p tracer is non-null. */
    virtual void SetUp(Tracer* tracer) = 0;

    /** One pass of the timed phase; see the file comment. */
    virtual PassOutput RunPass(Tracer* tracer) = 0;

    /** Simulated quality of @p pass. */
    virtual Quality Summarize(const PassOutput& pass) const = 0;

    /** Probe inputs, given a traced pass (for its required speedups). */
    virtual ProbeInputs Probes(const PassOutput& traced) const = 0;

    /** Configurations in the enumerated het grid (biglittle_eval only). */
    virtual size_t grid_configs() const { return 0; }

    /** True when set-up runs simulations (a profile, a stock run), so its
     * time is calibrated like a pass's; false when it only builds devices
     * and inputs, calibrated by the set-up kernel (calibrate.h). */
    virtual bool setup_simulates() const { return false; }

    /** Compares @p pass with its committed bench/snapshots/ copy (relative
     * to the working directory) when the seed and every setting match it;
     * returns the mismatches and describes what was compared in @p note. */
    virtual std::vector<std::string>
    CompareSnapshot(const PassOutput& pass, std::string* note) const
    {
        (void)pass;
        *note = "none (no committed snapshot has this workload's settings)";
        return {};
    }
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string>& WorkloadNames();

/** Builds workload @p name; nullptr if the name is unknown. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const BenchConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
