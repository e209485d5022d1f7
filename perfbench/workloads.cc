#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "apps/app_registry.h"
#include "chaos/platform_decorator.h"
#include "chaos/scenario_generator.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/batch_runner.h"
#include "core/experiment.h"
#include "core/het_config_space.h"
#include "core/scenarios.h"
#include "invariants.h"
#include "paper_data.h"
#include "platform/sim_platform.h"
#include "power/power_model.h"
#include "soc/exynos5433.h"
#include "soc/nexus6.h"

namespace perfbench {

using namespace aeo;

namespace {

// Seed offsets of the §V procedure (ExperimentHarness::RunComparison).
constexpr uint64_t kProfileSeedOffset = 1000;
constexpr uint64_t kControllerSeedOffset = 2000;

constexpr const char kChaosApp[] = "AngryBirds";
constexpr int kChaosCampaigns = 64;

/** Scenario seed of campaign @p index (robustness_chaos_campaign's rule). */
uint64_t
CampaignSeed(uint64_t seed, int index)
{
    return seed + 1000003ull * static_cast<uint64_t>(index + 1);
}

DeviceConfig
Exynos5433Config(uint64_t seed)
{
    DeviceConfig config;
    config.seed = seed;
    config.topology = MakeExynos5433Topology();
    config.power_params = MakeExynos5433PowerParams();
    return config;
}

DeviceFactory
MakeExynos5433Factory()
{
    return [](uint64_t seed) { return std::make_unique<Device>(Exynos5433Config(seed)); };
}

/**
 * The factory a traced job builds its devices through: counts every build
 * and records it as a "device.build" span under the job's current stage.
 * Profiler workers call it concurrently; *stage is set before they start.
 */
DeviceFactory
TracedFactory(const DeviceFactory& inner, Tracer* tracer, int job,
              const SpanId* stage, std::atomic<uint64_t>* builds)
{
    return [inner, tracer, job, stage, builds](uint64_t seed) {
        const ScopedSpan span(tracer, "device.build", job, *stage);
        builds->fetch_add(1, std::memory_order_relaxed);
        return inner(seed);
    };
}

void
Drive(Device* device, const AppScenario& scenario)
{
    if (scenario.batch) {
        device->RunUntilAppFinishes(scenario.run_duration);
    } else {
        device->RunFor(scenario.run_duration);
    }
}

/** ExperimentHarness::RunDefault, step by step on a device the benchmark
 * owns, so the meter and event counts can be read before it is destroyed. */
RunResult
DriveStock(const DeviceFactory& factory, const std::string& app, uint64_t seed,
           const std::string& governor, Tracer* tracer, int job, SpanId stage,
           LayerCounts* counts)
{
    const AppScenario scenario = GetAppScenario(app);
    std::unique_ptr<Device> device = factory(seed);
    device->SetBackground(MakeBackgroundEnv(BackgroundKind::kBaseline));
    device->UseDefaultGovernors();
    if (!governor.empty()) {
        CpufreqPolicy* little = device->little_cpufreq();
        if (!device->cpufreq().SetGovernor(governor) ||
            (little != nullptr && !little->SetGovernor(governor))) {
            throw std::runtime_error("unknown governor " + governor);
        }
    }
    device->LaunchApp(MakeAppSpecByName(app));
    {
        const ScopedSpan run(tracer, "device.run", job, stage);
        Drive(device.get(), scenario);
    }
    counts->monitor_samples += device->monitor().sample_count();
    counts->driven_events += device->sim().executed_events();
    return device->CollectResult(governor.empty() ? "default" : governor);
}

/** ExperimentHarness::RunWithController on a device, SimPlatform and
 * OnlineController the benchmark owns. */
RunResult
DriveController(const DeviceFactory& factory, const std::string& app,
                const ProfileTable& table, double target_gips,
                const ControllerConfig& tuning, uint64_t seed, Tracer* tracer,
                int job, SpanId stage, LayerCounts* counts,
                std::vector<double>* required_speedups)
{
    const AppScenario scenario = GetAppScenario(app);
    std::unique_ptr<Device> device = factory(seed);
    device->SetBackground(MakeBackgroundEnv(BackgroundKind::kBaseline));
    device->LaunchApp(MakeAppSpecByName(app));
    ControllerConfig config = tuning;
    config.target_gips = target_gips;
    platform::SimPlatform platform(device.get());
    OnlineController controller(&platform, table, config);
    controller.Start();
    {
        const ScopedSpan run(tracer, "device.run", job, stage);
        Drive(device.get(), scenario);
    }
    controller.Stop();
    const platform::ActuationStats& stats = controller.actuator().stats();
    counts->platform_writes += stats.writes;
    counts->platform_failed_ops += stats.failed_ops;
    counts->cycles += controller.cycle_count();
    counts->degraded_cycles += controller.degraded_cycle_count();
    counts->safe_mode_cycles += controller.safe_mode_cycle_count();
    counts->fallbacks += controller.fallback_engaged() ? 1 : 0;
    for (const ControlCycleRecord& record : controller.history()) {
        required_speedups->push_back(record.required_speedup);
    }
    counts->monitor_samples += device->monitor().sample_count();
    counts->driven_events += device->sim().executed_events();
    return device->CollectResult("controller");
}

/**
 * Set-up shared by the app-based workloads: resolves every app's scenario
 * and spec and builds one device per app through the factory with the app
 * launched — the inputs a pass needs, validated before the first timed job.
 */
void
PrepareApps(const DeviceFactory& factory, const std::vector<std::string>& apps,
            uint64_t seed, Tracer* tracer)
{
    const ScopedSpan span(tracer, "prepare", -1, kNoSpan);
    for (const std::string& app : apps) {
        const AppScenario scenario = GetAppScenario(app);
        std::unique_ptr<Device> device = factory(seed);
        device->LaunchApp(MakeAppSpecByName(scenario.app_name));
    }
}

void
RecordRun(const RunResult& run, const AppScenario& scenario, PassOutput* pass)
{
    ++pass->attempted;
    const std::vector<std::string> problems = CheckRunResult(run, scenario);
    if (!problems.empty()) {
        ++pass->failed;
    }
    for (const std::string& problem : problems) {
        pass->problems.push_back(run.app_name + " [" + run.policy_name +
                                 "]: " + problem);
    }
    pass->sim_seconds += run.duration_s;
    pass->fingerprint += Fingerprint(run) + '\n';
}

/** One app of a pass, with the layer counts its traced run collected. */
struct AppJob {
    AppOutcome outcome;
    LayerCounts counts;
};

/** Moves @p jobs into @p pass in job order. */
void
Collect(std::vector<AppJob> jobs, PassOutput* pass)
{
    for (AppJob& job : jobs) {
        pass->apps.push_back(std::move(job.outcome));
        pass->counts.Add(job.counts);
    }
}

/** Checks, counts and fingerprints every output of an app-based pass. */
void
FinishApps(PassOutput* pass)
{
    for (const AppOutcome& outcome : pass->apps) {
        const AppScenario scenario = GetAppScenario(outcome.app);
        RecordRun(outcome.baseline, scenario, pass);
        if (outcome.alt_baseline) {
            RecordRun(*outcome.alt_baseline, scenario, pass);
        }
        RecordRun(outcome.controller, scenario, pass);
        // Profiling runs: one operation per (configuration, run); they are
        // only visible through the table they produce.
        const uint64_t runs = outcome.profiled_configs *
                              static_cast<uint64_t>(outcome.profile_runs);
        pass->attempted += runs;
        pass->sim_seconds +=
            static_cast<double>(runs) * scenario.profile_duration.seconds();
        const bool worked = std::all_of(
            outcome.table.entries().begin(), outcome.table.entries().end(),
            [](const ProfileEntry& entry) {
                return entry.speedup > 0.0 && entry.power_mw.value() > 0.0;
            });
        if (!worked || outcome.table.size() == 0) {
            pass->failed += runs;
            pass->problems.push_back(outcome.app + ": profile row without work");
        }
        pass->fingerprint += Fingerprint(outcome.table) + '\n';
    }
}

Quality
SummarizeApps(const PassOutput& pass, bool against_table3)
{
    Quality quality;
    double baseline_j = 0.0;
    double controller_j = 0.0;
    double measured_j = 0.0;
    double exact_j = 0.0;
    double worst_perf = std::numeric_limits<double>::infinity();
    double paper_err_sum = 0.0;
    for (const AppOutcome& outcome : pass.apps) {
        baseline_j += outcome.baseline.measured_energy_j;
        controller_j += outcome.controller.measured_energy_j;
        worst_perf = std::min(
            worst_perf, outcome.controller.PerformanceDeltaPercent(outcome.baseline));
        std::vector<const RunResult*> runs = {&outcome.baseline, &outcome.controller};
        if (outcome.alt_baseline) {
            runs.push_back(&*outcome.alt_baseline);
        }
        for (const RunResult* run : runs) {
            measured_j += run->measured_energy_j;
            exact_j += run->energy_j;
            quality.dvfs_transitions += run->cpu_transitions +
                                        run->bw_transitions +
                                        run->little_transitions;
        }
        if (against_table3) {
            for (const paper::AppRow& row : paper::TableIII()) {
                if (row.app == outcome.app) {
                    paper_err_sum += std::fabs(
                        outcome.controller.EnergySavingsPercent(outcome.baseline) -
                        row.energy_savings_pct);
                }
            }
        }
    }
    quality.energy_savings_pct = (1.0 - controller_j / baseline_j) * 100.0;
    quality.perf_delta_pct = worst_perf;
    quality.meter_err_pct = (measured_j - exact_j) / exact_j * 100.0;
    if (against_table3) {
        quality.paper_err_pp = paper_err_sum / static_cast<double>(pass.apps.size());
    }
    return quality;
}

/** Table III on the Nexus 6 (§V): stock → sparse profile → controller. */
class Nexus6Eval final : public Workload {
  public:
    explicit Nexus6Eval(const BenchConfig& config) : config_(config) {}

    void
    SetUp(Tracer* tracer) override
    {
        factory_ = MakeDefaultDeviceFactory();
        apps_.clear();
        for (const paper::AppRow& row : paper::TableIII()) {
            apps_.push_back(row.app);
        }
        PrepareApps(factory_, apps_, config_.seed, tracer);
        options_ = ExperimentOptions{};
        options_.seed = config_.seed;
        options_.profile_runs = 3;  // The paper's three runs per configuration.
        // The app fan-out owns every worker; profiling inside a job is serial.
        options_.batch.jobs = 1;
    }

    PassOutput
    RunPass(Tracer* tracer) override
    {
        PassOutput pass;
        if (tracer == nullptr) {
            std::vector<ComparisonJob> jobs;
            for (const std::string& app : apps_) {
                jobs.push_back(ComparisonJob{app, options_});
            }
            std::vector<ExperimentOutcome> outcomes =
                ExperimentHarness(factory_).RunComparisons(
                    std::move(jobs), BatchOptions{config_.workers});
            for (size_t i = 0; i < outcomes.size(); ++i) {
                ExperimentOutcome& outcome = outcomes[i];
                pass.apps.push_back(AppOutcome{
                    apps_[i], std::move(outcome.default_run), std::nullopt,
                    std::move(outcome.controller_run), std::move(outcome.table),
                    MeasuredConfigs(apps_[i]), options_.profile_runs, {}});
            }
        } else {
            auto job = [&](size_t i) {
                LayerCounts counts;
                AppOutcome outcome = RunTracedApp(i, tracer, &counts);
                return AppJob{std::move(outcome), counts};
            };
            Collect(BatchRunner(BatchOptions{config_.workers})
                        .RunIndexed<AppJob>(apps_.size(), job),
                    &pass);
        }
        FinishApps(&pass);
        return pass;
    }

    Quality
    Summarize(const PassOutput& pass) const override
    {
        return SummarizeApps(pass, /*against_table3=*/true);
    }

    ProbeInputs
    Probes(const PassOutput& traced) const override
    {
        ProbeInputs inputs;
        inputs.device_config.seed = config_.seed;
        for (const AppOutcome& outcome : traced.apps) {
            // Each app's own sparse grid, sampled at its midpoint.
            const std::vector<int>& levels =
                GetAppScenario(outcome.app).profile_cpu_levels;
            inputs.pinned_sample.emplace_back(
                outcome.app, SystemConfig{levels[levels.size() / 2],
                                          kNexus6BwLevels - 1});
            inputs.replays.emplace_back(outcome.table, outcome.required_speedups);
        }
        return inputs;
    }

  private:
    /** Configurations the sparse profile measures (§III-A): the app's
     * admitted CPU levels at the lowest and highest bandwidth. */
    static size_t
    MeasuredConfigs(const std::string& app)
    {
        return GetAppScenario(app).profile_cpu_levels.size() * 2;
    }

    AppOutcome
    RunTracedApp(size_t i, Tracer* tracer, LayerCounts* counts) const
    {
        const int job = static_cast<int>(i);
        const std::string& app = apps_[i];
        SpanId stage = kNoSpan;
        std::atomic<uint64_t> builds{0};
        const DeviceFactory factory =
            TracedFactory(factory_, tracer, job, &stage, &builds);
        const ScopedSpan job_span(tracer, "job", job, kNoSpan);

        RunResult baseline = [&] {
            const ScopedSpan span(tracer, "stock_run", job, job_span.id());
            stage = span.id();
            return DriveStock(factory, app, options_.seed, "", tracer, job,
                              stage, counts);
        }();
        ProfileTable table = [&] {
            const ScopedSpan span(tracer, "profile", job, job_span.id());
            stage = span.id();
            return ExperimentHarness(factory).ProfileApp(app, options_);
        }();
        std::vector<double> speedups;
        RunResult controller = [&] {
            const ScopedSpan span(tracer, "controller_run", job, job_span.id());
            stage = span.id();
            return DriveController(factory, app, table, baseline.avg_gips,
                                   options_.controller,
                                   options_.seed + kControllerSeedOffset,
                                   tracer, job, stage, counts, &speedups);
        }();
        counts->device_builds += builds.load();
        counts->profile_configs += MeasuredConfigs(app);
        return AppOutcome{app,
                          std::move(baseline),
                          std::nullopt,
                          std::move(controller),
                          std::move(table),
                          MeasuredConfigs(app),
                          options_.profile_runs,
                          std::move(speedups)};
    }

    BenchConfig config_;
    DeviceFactory factory_;
    std::vector<std::string> apps_;
    ExperimentOptions options_;
};

/**
 * Compares a biglittle_eval pass with table6_biglittle's committed snapshot
 * field by field, at the snapshot's own %.6g rounding. Returns mismatches;
 * sets @p comparable false when the snapshot was made with other settings.
 */
std::vector<std::string>
CompareTable6(const PassOutput& pass, size_t grid_configs, const std::string& path,
              bool* comparable)
{
    *comparable = true;
    std::ifstream in(path);
    if (!in) {
        return {"cannot read " + path};
    }
    std::stringstream text;
    text << in.rdbuf();
    const JsonParseResult parsed = ParseJson(text.str());
    if (!parsed.ok) {
        return {path + ": " + parsed.error};
    }
    const JsonValue& doc = parsed.value;
    if (!doc.GetBool("fast", false) || doc.GetDouble("profile_runs", 0.0) != 1.0 ||
        doc.GetDouble("grid_configs", 0.0) != static_cast<double>(grid_configs) ||
        doc.GetString("root_seed", "") != "2017") {
        *comparable = false;
        return {};
    }
    const std::vector<JsonValue>& rows = doc.At("rows").items();
    if (rows.size() != pass.apps.size()) {
        return {path + ": row count differs"};
    }
    std::vector<std::string> problems;
    for (size_t i = 0; i < rows.size(); ++i) {
        const AppOutcome& outcome = pass.apps[i];
        const RunResult& interactive = outcome.baseline;
        const RunResult& lulzactive = *outcome.alt_baseline;
        const RunResult& controller = outcome.controller;
        const std::pair<const char*, double> fields[] = {
            {"perf_vs_interactive_pct", controller.PerformanceDeltaPercent(interactive)},
            {"energy_vs_interactive_pct", controller.EnergySavingsPercent(interactive)},
            {"energy_vs_lulzactive_pct", controller.EnergySavingsPercent(lulzactive)},
            {"interactive_energy_j", interactive.energy_j},
            {"lulzactive_energy_j", lulzactive.energy_j},
            {"controller_energy_j", controller.energy_j},
            {"interactive_avg_gips", interactive.avg_gips},
            {"controller_avg_gips", controller.avg_gips},
        };
        if (rows[i].GetString("app", "") != outcome.app) {
            problems.push_back(path + ": row " + std::to_string(i) + " is not " +
                               outcome.app);
            continue;
        }
        for (const auto& [key, value] : fields) {
            const std::string ours = StrFormat("%.6g", value);
            const std::string committed = rows[i].GetString(key, "");
            if (ours != committed) {
                problems.push_back(outcome.app + " " + key + ": " + ours +
                                   " vs snapshot " + committed);
            }
        }
    }
    return problems;
}

/** Table VI on the Exynos 5433 big.LITTLE: interactive and lulzactive
 * baselines → hull-pruned het-grid profile → controller. */
class BigLittleEval final : public Workload {
  public:
    explicit BigLittleEval(const BenchConfig& config) : config_(config) {}

    void
    SetUp(Tracer* tracer) override
    {
        factory_ = MakeExynos5433Factory();
        apps_ = EvaluationAppNames();
        PrepareApps(factory_, apps_, config_.seed, tracer);
        // table6_biglittle --fast's grid: the extreme and two interior
        // bandwidths, every admissible placement, hull-pruned clusters.
        {
            const ScopedSpan span(tracer, "enumerate", -1, kNoSpan);
            const PowerModel model(MakeExynos5433PowerParams());
            HetSpaceOptions space;
            space.bw_levels = {0, 2, 4, kExynos5433BwLevels - 1};
            grid_ = EnumerateHetConfigs(MakeExynos5433Topology(), model, space);
        }
        controller_ = ControllerConfig{};
        controller_.regulator_surplus_band = 8.0;
        controller_.regulator_max_step_down = 0.06;
    }

    PassOutput
    RunPass(Tracer* tracer) override
    {
        PassOutput pass;
        auto job = [&](size_t i) {
            LayerCounts counts;
            AppOutcome outcome =
                tracer == nullptr ? RunApp(i) : RunTracedApp(i, tracer, &counts);
            return AppJob{std::move(outcome), counts};
        };
        // Apps run in turn and each profile fans its 504-point grid over
        // every worker (ProfileOptions). An app-level fan-out would leave
        // workers idle behind the two 45 s-window apps, making the pass as
        // long and as noisy as one thread's share of them.
        Collect(BatchRunner(BatchOptions{1}).RunIndexed<AppJob>(apps_.size(), job),
                &pass);
        FinishApps(&pass);
        return pass;
    }

    Quality
    Summarize(const PassOutput& pass) const override
    {
        return SummarizeApps(pass, /*against_table3=*/false);
    }

    ProbeInputs
    Probes(const PassOutput& traced) const override
    {
        ProbeInputs inputs;
        inputs.device_config = Exynos5433Config(config_.seed);
        for (size_t i = 0; i < traced.apps.size(); ++i) {
            const AppOutcome& outcome = traced.apps[i];
            inputs.pinned_sample.emplace_back(
                outcome.app, grid_[(2 * i + 1) * grid_.size() / (2 * apps_.size())]);
            inputs.replays.emplace_back(outcome.table, outcome.required_speedups);
        }
        return inputs;
    }

    size_t grid_configs() const override { return grid_.size(); }

    std::vector<std::string>
    CompareSnapshot(const PassOutput& pass, std::string* note) const override
    {
        // table6_biglittle --fast at its fixed seed 2017 runs exactly this
        // procedure; any other seed has no committed counterpart.
        if (config_.seed != 2017) {
            *note = "none (BENCH_table6.json is seed 2017 only)";
            return {};
        }
        const std::string path = "bench/snapshots/BENCH_table6.json";
        bool comparable = true;
        std::vector<std::string> problems =
            CompareTable6(pass, grid_.size(), path, &comparable);
        *note = comparable ? path + " (8 fields per app at %.6g)"
                           : "none (" + path + " has other settings)";
        return problems;
    }

  private:
    ProfilerOptions
    ProfileOptions(const std::string& app) const
    {
        ProfilerOptions options;
        options.configs = grid_;
        options.runs = 1;
        options.measure_duration = GetAppScenario(app).profile_duration;
        options.load = BackgroundKind::kBaseline;
        options.seed = config_.seed + kProfileSeedOffset;
        options.batch.jobs = config_.workers;  // The profile owns every worker.
        return options;
    }

    /** table6_biglittle's post-profiling pruning (§V-A, automated). */
    static ProfileTable
    PruneForController(const ProfileTable& profiled, const RunResult& interactive)
    {
        const ProfileTable table = profiled.PruneEpsilonDominated(0.01);
        return table.PruneSteepTail(
            3.0, interactive.avg_gips / table.base_speed_gips() * 1.02);
    }

    AppOutcome
    RunApp(size_t i) const
    {
        const std::string& app = apps_[i];
        const ExperimentHarness harness(factory_);
        RunResult interactive =
            harness.RunDefault(app, BackgroundKind::kBaseline, config_.seed);
        RunResult lulzactive = harness.RunDefault(app, BackgroundKind::kBaseline,
                                                  config_.seed, "lulzactive");
        ProfileTable table = PruneForController(
            OfflineProfiler(factory_).Profile(MakeAppSpecByName(app),
                                              ProfileOptions(app)),
            interactive);
        ExperimentOptions options;
        options.seed = config_.seed;
        options.controller = controller_;
        RunResult controller = harness.RunWithController(
            app, table, interactive.avg_gips, options,
            config_.seed + kControllerSeedOffset);
        return AppOutcome{app,        std::move(interactive), std::move(lulzactive),
                          std::move(controller), std::move(table), grid_.size(),
                          1,          {}};
    }

    AppOutcome
    RunTracedApp(size_t i, Tracer* tracer, LayerCounts* counts) const
    {
        const int job = static_cast<int>(i);
        const std::string& app = apps_[i];
        SpanId stage = kNoSpan;
        std::atomic<uint64_t> builds{0};
        const DeviceFactory factory =
            TracedFactory(factory_, tracer, job, &stage, &builds);
        const ScopedSpan job_span(tracer, "job", job, kNoSpan);

        auto stock = [&](const std::string& governor) {
            const ScopedSpan span(tracer, "stock_run", job, job_span.id());
            stage = span.id();
            return DriveStock(factory, app, config_.seed, governor, tracer, job,
                              stage, counts);
        };
        RunResult interactive = stock("");
        RunResult lulzactive = stock("lulzactive");
        ProfileTable table = [&] {
            const ScopedSpan span(tracer, "profile", job, job_span.id());
            stage = span.id();
            return PruneForController(
                OfflineProfiler(factory).Profile(MakeAppSpecByName(app),
                                                 ProfileOptions(app)),
                interactive);
        }();
        std::vector<double> speedups;
        RunResult controller = [&] {
            const ScopedSpan span(tracer, "controller_run", job, job_span.id());
            stage = span.id();
            return DriveController(factory, app, table, interactive.avg_gips,
                                   controller_,
                                   config_.seed + kControllerSeedOffset, tracer,
                                   job, stage, counts, &speedups);
        }();
        counts->device_builds += builds.load();
        counts->profile_configs += grid_.size();
        return AppOutcome{app,
                          std::move(interactive),
                          std::move(lulzactive),
                          std::move(controller),
                          std::move(table),
                          grid_.size(),
                          1,
                          std::move(speedups)};
    }

    BenchConfig config_;
    DeviceFactory factory_;
    std::vector<std::string> apps_;
    std::vector<SystemConfig> grid_;
    ControllerConfig controller_;
};

/**
 * A pass-through platform that hands the real actuator's health counters
 * to @p out when the campaign tears it down. ForwardingPlatform's contract
 * keeps the inner platform alive for the decorator's whole lifetime.
 */
class ObservedPlatform final : public chaos::ForwardingPlatform {
  public:
    ObservedPlatform(platform::Platform* inner, platform::ActuationStats* out)
        : ForwardingPlatform(inner), real_(inner), out_(out)
    {
    }
    ~ObservedPlatform() override { *out_ = real_->actuator().stats(); }

    // ForwardingPlatform leaves the topology queries at their defaults.
    int num_cpu_clusters() const override { return real_->num_cpu_clusters(); }
    int max_little_level() const override { return real_->max_little_level(); }

  private:
    platform::Platform* real_;
    platform::ActuationStats* out_;
};

/** One campaign of a chaos pass. */
struct CampaignJob {
    chaos::CampaignReport report;
    LayerCounts counts;
};

/** Seeded full-length AngryBirds chaos campaigns with thermal modelling. */
class ChaosCampaigns final : public Workload {
  public:
    explicit ChaosCampaigns(const BenchConfig& config) : config_(config) {}

    void
    SetUp(Tracer* tracer) override
    {
        // Clean profile and stock target run, as the §V procedure obtains
        // them (robustness_chaos_campaign's set-up at full length).
        const AppScenario scenario = GetAppScenario(kChaosApp);
        ProfilerOptions profile;
        profile.runs = 3;
        profile.cpu_levels = scenario.profile_cpu_levels;
        profile.measure_duration = scenario.profile_duration;
        profile.seed = config_.seed + kProfileSeedOffset;
        profile.batch.jobs = config_.workers;
        {
            const ScopedSpan span(tracer, "profile", -1, kNoSpan);
            table_.emplace(OfflineProfiler().Profile(MakeAppSpecByName(kChaosApp),
                                                     profile));
        }
        profile_configs_ = profile.cpu_levels.size() * 2;

        const ScopedSpan span(tracer, "stock_run", -1, kNoSpan);
        DeviceConfig device_config;
        device_config.seed = config_.seed;
        Device device(device_config);
        device.UseDefaultGovernors();
        device.LaunchApp(MakeAppSpecByName(kChaosApp));
        device.RunFor(scenario.run_duration);
        stock_ = device.CollectResult("default");
        stock_samples_ = device.monitor().sample_count();
        stock_events_ = device.sim().executed_events();

        options_ = chaos::CampaignOptions{};
        options_.app = kChaosApp;
        options_.table = &*table_;
        options_.target_gips = stock_.avg_gips;
        options_.spec.duration_s = 120.0;
        options_.spec.bursts_per_minute = 3.0;
        options_.spec.phase_anchor_period_s = 10.0;
        scenarios_.clear();
        for (int i = 0; i < kChaosCampaigns; ++i) {
            scenarios_.push_back(
                chaos::GenerateScenario(options_.spec, CampaignSeed(config_.seed, i)));
        }
    }

    PassOutput
    RunPass(Tracer* tracer) override
    {
        std::vector<CampaignJob> jobs =
            BatchRunner(BatchOptions{config_.workers})
                .RunIndexed<CampaignJob>(scenarios_.size(), [&](size_t i) {
                    if (tracer == nullptr) {
                        return CampaignJob{
                            chaos::RunCampaign(options_, scenarios_[i]), {}};
                    }
                    return RunTracedCampaign(i, tracer);
                });
        PassOutput pass;
        for (const std::string& problem :
             CheckRunResult(stock_, GetAppScenario(kChaosApp))) {
            pass.problems.push_back("stock target run: " + problem);
        }
        if (tracer != nullptr) {
            // Campaign devices are built inside RunCampaign; the only device
            // this workload drives itself is set-up's stock target run.
            pass.counts.monitor_samples = stock_samples_;
            pass.counts.driven_events = stock_events_;
            pass.counts.profile_configs = profile_configs_;
        }
        for (CampaignJob& job : jobs) {
            const chaos::CampaignReport& report = job.report;
            ++pass.attempted;
            // A violated invariant is a verdict of a campaign that ran, not
            // a failed operation and not wrong output.
            if (report.cycles == 0 || !(report.avg_gips > 0.0)) {
                ++pass.failed;
            } else if (!report.clean()) {
                ++pass.violated;
            }
            pass.sim_seconds += options_.spec.duration_s;
            pass.fingerprint += Fingerprint(report) + '\n';
            pass.counts.Add(job.counts);
            pass.campaigns.push_back(std::move(job.report));
        }
        return pass;
    }

    Quality
    Summarize(const PassOutput& pass) const override
    {
        // Campaigns report exact energy only; compare it with the stock run's
        // exact power over the same simulated length.
        Quality quality;
        const double stock_power_w = stock_.energy_j / stock_.duration_s;
        double campaign_j = 0.0;
        double worst_perf = std::numeric_limits<double>::infinity();
        for (const chaos::CampaignReport& report : pass.campaigns) {
            campaign_j += report.energy_j;
            worst_perf = std::min(worst_perf, (report.avg_gips - stock_.avg_gips) /
                                                  stock_.avg_gips * 100.0);
        }
        quality.energy_savings_pct =
            (1.0 - campaign_j / (stock_power_w * options_.spec.duration_s *
                                 static_cast<double>(pass.campaigns.size()))) *
            100.0;
        quality.perf_delta_pct = worst_perf;
        quality.meter_err_pct =
            (stock_.measured_energy_j - stock_.energy_j) / stock_.energy_j * 100.0;
        quality.dvfs_transitions = stock_.cpu_transitions + stock_.bw_transitions;
        return quality;
    }

    bool setup_simulates() const override { return true; }

    ProbeInputs
    Probes(const PassOutput& traced) const override
    {
        ProbeInputs inputs;
        inputs.device_config.seed = config_.seed;
        for (const int level : GetAppScenario(kChaosApp).profile_cpu_levels) {
            for (const int bw : {0, kNexus6BwLevels - 1}) {
                inputs.pinned_sample.emplace_back(kChaosApp, SystemConfig{level, bw});
            }
        }
        std::vector<double> speedups;
        for (const chaos::CampaignReport& report : traced.campaigns) {
            for (const ControlCycleRecord& record : report.cycle_tail) {
                speedups.push_back(record.required_speedup);
            }
        }
        inputs.replays.emplace_back(*table_, std::move(speedups));
        return inputs;
    }

  private:
    CampaignJob
    RunTracedCampaign(size_t i, Tracer* tracer) const
    {
        const int job = static_cast<int>(i);
        const ScopedSpan job_span(tracer, "job", job, kNoSpan);
        // Regenerated inside the job (the untraced pass uses set-up's copy):
        // generation is part of what the identity check covers.
        const chaos::ChaosScenario scenario = [&] {
            const ScopedSpan span(tracer, "scenario", job, job_span.id());
            return chaos::GenerateScenario(options_.spec,
                                           CampaignSeed(config_.seed, job));
        }();
        platform::ActuationStats stats;
        chaos::CampaignOptions options = options_;
        options.decorate_platform = [&stats](platform::Platform* inner) {
            return std::make_unique<ObservedPlatform>(inner, &stats);
        };
        chaos::CampaignReport report = [&] {
            const ScopedSpan span(tracer, "campaign", job, job_span.id());
            return chaos::RunCampaign(options, scenario);
        }();
        LayerCounts counts;
        counts.device_builds = 1;  // RunCampaign builds one device.
        counts.platform_writes = stats.writes;
        counts.platform_failed_ops = stats.failed_ops;
        counts.cycles = report.cycles;
        counts.degraded_cycles = report.degraded_cycles;
        counts.safe_mode_cycles = report.safe_mode_cycles;
        counts.fallbacks = report.fallback ? 1 : 0;
        return CampaignJob{std::move(report), counts};
    }

    BenchConfig config_;
    std::optional<ProfileTable> table_;
    uint64_t profile_configs_ = 0;
    RunResult stock_;
    uint64_t stock_samples_ = 0;
    uint64_t stock_events_ = 0;
    chaos::CampaignOptions options_;
    std::vector<chaos::ChaosScenario> scenarios_;
};

}  // namespace

void
LayerCounts::Add(const LayerCounts& other)
{
    device_builds += other.device_builds;
    monitor_samples += other.monitor_samples;
    driven_events += other.driven_events;
    platform_writes += other.platform_writes;
    platform_failed_ops += other.platform_failed_ops;
    cycles += other.cycles;
    degraded_cycles += other.degraded_cycles;
    safe_mode_cycles += other.safe_mode_cycles;
    fallbacks += other.fallbacks;
    profile_configs += other.profile_configs;
}

const std::vector<std::string>&
WorkloadNames()
{
    static const std::vector<std::string> kNames = {"nexus6_eval", "biglittle_eval",
                                                    "chaos_campaigns"};
    return kNames;
}

std::unique_ptr<Workload>
MakeWorkload(const std::string& name, const BenchConfig& config)
{
    if (name == "nexus6_eval") {
        return std::make_unique<Nexus6Eval>(config);
    }
    if (name == "biglittle_eval") {
        return std::make_unique<BigLittleEval>(config);
    }
    if (name == "chaos_campaigns") {
        return std::make_unique<ChaosCampaigns>(config);
    }
    return nullptr;
}

}  // namespace perfbench
