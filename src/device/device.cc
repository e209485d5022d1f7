#include "device/device.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"
#include "soc/nexus6.h"

namespace aeo {

namespace {

/** Demand of an empty foreground (home screen idle). */
WorkloadDemand
IdleDemand()
{
    WorkloadDemand demand;
    demand.ipc = 0.5;
    demand.parallelism = 1.0;
    demand.mem_bytes_per_instr = 0.2;
    demand.demand_gips = 0.002;
    return demand;
}

/** Exact equality: no tolerance, and 0.0 differs from -0.0. */
bool
SameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

namespace {

/** Switches @p policy's governor (an asserting write). */
void
WriteGovernor(Sysfs& sysfs, const DvfsPolicy& policy, const char* governor)
{
    sysfs.Write(policy.Open(&DvfsSysfsNames::governor), governor);
}

/** Writes @p level to @p policy's userspace target file. */
void
WriteTargetLevel(Sysfs& sysfs, const DvfsPolicy& policy, int level)
{
    sysfs.Write(policy.Open(&DvfsSysfsNames::set_freq), policy.FormatLevel(level));
}

}  // namespace

Device::ClusterDomain::ClusterDomain(const ClusterSpec& cluster_spec)
    : spec(&cluster_spec), cluster(cluster_spec.table, cluster_spec.num_cores)
{
}

Device::Device(DeviceConfig config)
    : config_(config),
      topology_(config_.topology ? *config_.topology : MakeNexus6Topology()),
      bus_(topology_.bandwidth_table()),
      gpu_(MakeAdreno420()),
      engine_(config.exec_params),
      power_model_(config.power_params),
      loadavg_(6.0)
{
    Rng seeder(config_.seed);
    // The foreground may use every cluster until told otherwise: the widest
    // admissible placement.
    placement_ = topology_.AdmissiblePlacements().back();

    clusters_.reserve(topology_.num_clusters());
    for (int i = 0; i < topology_.num_clusters(); ++i) {
        const ClusterSpec& spec = topology_.cluster(i);
        AEO_ASSERT(clusters_.size() < clusters_.capacity(),
                   "a cluster domain would move out from under its policy");
        ClusterDomain& domain = clusters_.emplace_back(spec);
        domain.cpufreq = std::make_unique<CpufreqPolicy>(
            &sim_, &domain.cluster, &domain.load_meter, &sysfs_,
            CpufreqRoot(spec.first_cpu, topology_.num_clusters()));
    }

    devfreq_ = std::make_unique<DevfreqPolicy>(&sim_, &bus_, &traffic_meter_,
                                               &sysfs_, kDevfreqSysfsRoot);

    gpufreq_ = std::make_unique<GpuFreqPolicy>(&sim_, &gpu_, &gpu_meter_, &sysfs_,
                                               kGpuSysfsRoot);

    perf_ = std::make_unique<PerfTool>(&sim_, &pmu_, seeder.Fork().NextU64(),
                                       config_.perf);
    monitor_ = std::make_unique<MonsoonMonitor>(
        &sim_, [this] { return CurrentPower(); }, seeder.Fork().NextU64(),
        config_.monsoon);

    // The injector's seed is derived outside the seeder.Fork() chain so that
    // configuring (or clearing) fault rules never shifts the component RNG
    // streams: a fault-free run is bit-identical either way.
    if (!config_.fault_rules.empty()) {
        fault_injector_ =
            std::make_unique<FaultInjector>(config_.seed ^ 0xFA171FA171ULL);
        for (const FaultRule& rule : config_.fault_rules) {
            fault_injector_->AddRule(rule);
        }
        sysfs_.SetFaultInjector(fault_injector_.get());
        perf_->SetFaultInjector(fault_injector_.get());
        monitor_->SetFaultInjector(fault_injector_.get());
    }

    background_env_ = MakeBackgroundEnv(BackgroundKind::kBaseline);
    background_ =
        std::make_unique<AppModel>(background_env_.spec, seeder.Fork().NextU64());
    loadavg_.set_resident_tasks(background_env_.resident_tasks);

    // Governors and perf sample lazily-integrated meters; the hooks bring
    // them up to date at each sampling instant.
    devfreq_->SetSyncHook([this] { IntegrateToNow(); });
    gpufreq_->SetSyncHook([this] { IntegrateToNow(); });
    perf_->SetSyncHook([this] { IntegrateToNow(); });
    // Starting or stopping perf changes its power overhead, a power input.
    perf_->SetRunStateHook([this] {
        monitor_->CatchUp();
        power_valid_ = false;
    });

    const auto listen = [this](LevelDomain& domain) {
        domain.SetPreChangeListener([this] { IntegrateToNow(); });
        domain.SetPostChangeListener([this] {
            RecomputeRates();
            RescheduleBoundary();
        });
    };
    for (ClusterDomain& domain : clusters_) {
        domain.cpufreq->SetSyncHook([this] { IntegrateToNow(); });
        listen(domain.cluster);
    }
    listen(bus_);
    listen(gpu_);

    last_update_ = sim_.Now();
    RecomputeRates();
    RescheduleBoundary();
}

Device::~Device() = default;

void
Device::LaunchApp(const AppSpec& spec)
{
    IntegrateToNow();
    Rng seeder(config_.seed ^ 0x9e3779b97f4a7c15ULL);
    foreground_ = std::make_unique<AppModel>(spec, seeder.NextU64());
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::SetBackground(const BackgroundEnv& env)
{
    IntegrateToNow();
    background_env_ = env;
    Rng seeder(config_.seed ^ 0xc2b2ae3d27d4eb4fULL);
    background_ = std::make_unique<AppModel>(env.spec, seeder.NextU64());
    loadavg_.set_resident_tasks(env.resident_tasks);
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::UseDefaultGovernors()
{
    for (const ClusterDomain& domain : clusters_) {
        WriteGovernor(sysfs_, *domain.cpufreq, "interactive");
    }
    WriteGovernor(sysfs_, *devfreq_, "cpubw_hwmon");
    WriteGovernor(sysfs_, *gpufreq_, "msm-adreno-tz");
}

void
Device::EnableMpdecision()
{
    ClusterDomain& primary = clusters_.front();
    mpdecision_ = std::make_unique<Mpdecision>(&sim_, &primary.cluster,
                                               &primary.load_meter);
    for (auto it = std::next(clusters_.begin()); it != clusters_.end(); ++it) {
        mpdecision_->AddCluster(&it->cluster, &it->load_meter);
    }
    mpdecision_->SetSyncHook([this] { IntegrateToNow(); });
    mpdecision_->Start();
}

void
Device::EnableInputBoost()
{
    // The cpu_boost module parameter node only exists on kernels built with
    // the driver (the paper's build compiles it out), so probe it instead of
    // asserting; absent or unparsable, the default floor stands.
    // aeo-lint: allow(sysfs-literal) -- optional module node, single probe site.
    const std::string raw = sysfs_.ReadOrDefault(
        "/sys/module/cpu_boost/parameters/input_boost_freq", "");
    long long khz = 0;
    Gigahertz boost_freq = InputBoost::kDefaultBoostFreq;
    if (!raw.empty() && ParseInt64(raw, &khz) && khz > 0) {
        boost_freq = Gigahertz(static_cast<double>(khz) / 1e6);
    }
    input_boost_ = std::make_unique<InputBoost>(&sim_, &cpufreq(), boost_freq);
}

void
Device::NotifyTouch()
{
    if (input_boost_) {
        input_boost_->OnTouch();
    }
}

void
Device::EnableThermal(ThermalParams thermal_params, MsmThermalParams msm_params)
{
    AEO_ASSERT(thermal_ == nullptr, "thermal subsystem enabled twice");
    Sync();
    thermal_ = std::make_unique<ThermalModel>(thermal_params);
    msm_thermal_ = std::make_unique<MsmThermal>(&sim_, &cpufreq(),
                                                thermal_.get(), &sysfs_,
                                                msm_params);
    msm_thermal_->SetSyncHook([this] { IntegrateToNow(); });
    msm_thermal_->Start();
    // Temperature reaches power only through the leakage factor
    // max(0, 1 + coeff·(T − 25)), which is exactly 1 at any finite T when
    // the coefficient is 0: then the power memo stays valid across segments.
    power_follows_temperature_ = power_model_.params().leak_temp_coeff_per_c != 0.0;
    // Temperature now feeds leakage, so rates must reflect the new inputs.
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::UseUserspaceGovernors()
{
    for (const ClusterDomain& domain : clusters_) {
        WriteGovernor(sysfs_, *domain.cpufreq, "userspace");
    }
    WriteGovernor(sysfs_, *devfreq_, "userspace");
}

void
Device::PinConfig(const SystemConfig& config)
{
    // Everything outside the configuration tuple runs under its default
    // governor during profiling, as on the paper's phone.
    if (config.controls_gpu()) {
        WriteGovernor(sysfs_, *gpufreq_, "userspace");
        WriteTargetLevel(sysfs_, *gpufreq_, config.gpu_level);
    } else {
        WriteGovernor(sysfs_, *gpufreq_, "msm-adreno-tz");
    }
    if (config.controls_bandwidth()) {
        PinCpuAndBus(config);
        return;
    }
    AEO_ASSERT(!config.controls_little(),
               "het profiling grids control the bandwidth");
    WriteGovernor(sysfs_, *devfreq_, "cpubw_hwmon");
    WriteGovernor(sysfs_, cpufreq(), "userspace");
    WriteTargetLevel(sysfs_, cpufreq(), config.cpu_level);
}

void
Device::PinConfiguration(int cpu_level, int bw_level)
{
    PinCpuAndBus(SystemConfig{cpu_level, bw_level});
}

void
Device::PinHetConfiguration(const HetConfig& config)
{
    PinCpuAndBus(SystemConfig{config.big_level, config.bw_level, kGpuDefaultGovernor,
                              config.little_level,
                              static_cast<int>(config.placement)});
}

void
Device::PinCpuAndBus(const SystemConfig& config)
{
    const bool het = config.controls_little();
    for (size_t i = clusters_.size(); het && i < kMaxCpuClusters; ++i) {
        AEO_ASSERT(config.cluster_level(i) == 0,
                   "config %s names a cluster this device lacks",
                   config.ToString().c_str());
    }
    UseUserspaceGovernors();
    for (size_t i = 0; i < (het ? clusters_.size() : 1); ++i) {
        WriteTargetLevel(sysfs_, *clusters_[i].cpufreq, config.cluster_level(i));
    }
    WriteTargetLevel(sysfs_, *devfreq_, config.bw_level);
    if (het) {
        SetThreadPlacement(static_cast<ThreadPlacement>(
            config.placement == kPlacementDefault ? kPlacementBigOnly
                                                  : config.placement));
    }
}

void
Device::SetThreadPlacement(ThreadPlacement placement)
{
    const std::vector<ThreadPlacement> admissible =
        topology_.AdmissiblePlacements();
    AEO_ASSERT(std::find(admissible.begin(), admissible.end(), placement) !=
                   admissible.end(),
               "placement '%s' not admissible on this topology",
               ThreadPlacementName(placement).c_str());
    if (placement == placement_) {
        return;
    }
    IntegrateToNow();
    placement_ = placement;
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::RunFor(SimTime duration)
{
    if (!monitor_started_) {
        monitor_->Start();
        monitor_started_ = true;
    }
    sim_.RunUntil(sim_.Now() + duration);
    Sync();
}

void
Device::RunUntilAppFinishes(SimTime max_duration)
{
    AEO_ASSERT(foreground_ != nullptr, "no foreground app launched");
    if (!monitor_started_) {
        monitor_->Start();
        monitor_started_ = true;
    }
    stop_when_app_finishes_ = true;
    sim_.RunUntil(sim_.Now() + max_duration);
    stop_when_app_finishes_ = false;
    Sync();
    if (!foreground_->Finished()) {
        Warn("app '%s' did not finish within %.1f s", foreground_->name().c_str(),
             max_duration.seconds());
    }
}

// aeo: hot-path
Milliwatts
Device::CurrentPower() const
{
    if (!power_valid_) {
        RefreshPower();
    }
    return current_->power;
}

void
Device::RefreshPower() const
{
    SegmentEntry& entry = *current_;
    const double component = AppComponentPower();
    const double overhead = perf_->power_overhead_mw() + controller_overhead_mw_;
    // Unless temperature moves the power, every other power input is a
    // field of the entry's key or rates, so equal component and overhead
    // power give the same power bit for bit.
    if (power_follows_temperature_ || !entry.has_power ||
        !SameBits(component, entry.app_component_mw) ||
        !SameBits(overhead, entry.overhead_mw)) {
        entry.power = EvaluatePower(component, overhead);
        entry.has_power = true;
        entry.app_component_mw = component;
        entry.overhead_mw = overhead;
    }
    power_valid_ = true;
}

double
Device::AppComponentPower() const
{
    double component = 0.0;
    if (foreground_ != nullptr) {
        component += foreground_->CurrentComponentPower();
    }
    component += background_->CurrentComponentPower();
    return component;
}

Milliwatts
Device::EvaluatePower(double app_component_mw, double overhead_mw) const
{
    const SegmentRates& rates = current_->rates;
    PowerInputs inputs;
    for (size_t i = 0; i < clusters_.size(); ++i) {
        const ClusterDomain& domain = clusters_[i];
        ClusterPowerInputs cpu;
        cpu.freq = domain.cluster.frequency();
        cpu.voltage = domain.cluster.voltage();
        cpu.online_cores = domain.cluster.online_cores();
        cpu.busy_cores = rates.clusters[i].busy_cores;
        cpu.dyn_scale = domain.spec->dyn_power_scale;
        cpu.leak_scale = domain.spec->leak_power_scale;
        inputs.clusters.push_back(cpu);
    }
    inputs.bw_level = bus_.level();
    inputs.mem_gbps = rates.mem_gbps;
    inputs.app_component_mw = app_component_mw;
    inputs.gpu_mhz = gpu_.mhz();
    inputs.gpu_voltage = gpu_.voltage();
    inputs.gpu_busy = rates.gpu_busy;
    inputs.overhead_mw = overhead_mw;
    inputs.temp_c = thermal_ != nullptr ? thermal_->temperature_c()
                                        : kLeakageReferenceC;
    return power_model_.TotalPower(inputs);
}

void
Device::SetControllerOverheadPower(double mw)
{
    AEO_ASSERT(mw >= 0.0, "negative overhead power");
    IntegrateToNow();
    controller_overhead_mw_ = mw;
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::Sync()
{
    IntegrateToNow();
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::IntegrateToNow()
{
    // The segment's end changes power inputs (temperature, app phases).
    monitor_->CatchUp();
    if (in_integrate_) {
        return;
    }
    in_integrate_ = true;
    const SimTime now = sim_.Now();
    const SimTime dt = now - last_update_;
    AEO_ASSERT(dt >= SimTime::Zero(), "time went backwards");
    if (dt > SimTime::Zero()) {
        const Seconds seconds = dt.ToSeconds();
        // Power is evaluated once at the segment's entry temperature and
        // held constant across it — consistent for both energy and heat.
        const Milliwatts power = CurrentPower();
        const SegmentRates& rates = current_->rates;
        energy_meter_.Accumulate(power, dt);
        if (thermal_ != nullptr) {
            thermal_->Advance(power, dt);
        }
        for (size_t i = 0; i < clusters_.size(); ++i) {
            ClusterDomain& domain = clusters_[i];
            domain.cluster.AddResidency(seconds.value());
            domain.load_meter.Advance(rates.clusters[i].busy_cores,
                                      rates.clusters[i].max_core_load, dt);
        }
        bus_.AddResidency(seconds.value());
        gpu_.AddResidency(seconds.value());
        gpu_meter_.Advance(rates.gpu_busy, dt);
        traffic_meter_.Advance(rates.mem_gbps, dt);
        pmu_.Advance(rates.fg_gips, clusters_.front().cluster.frequency().value(),
                     rates.busy_cores, rates.mem_gbps, dt);
        loadavg_.Advance(rates.busy_cores, dt);
        if (foreground_ != nullptr) {
            foreground_->Advance(dt, rates.fg_gips * seconds.value());
        }
        background_->Advance(dt, rates.bg_gips * seconds.value());
        last_update_ = now;
        // The segment's end moved a temperature that the power follows, or
        // a phase change moved an app's component power: the power must be
        // evaluated again.
        if (power_valid_ &&
            (power_follows_temperature_ ||
             !SameBits(AppComponentPower(), current_->app_component_mw))) {
            power_valid_ = false;
        }
    }
    in_integrate_ = false;
    MaybeFinish();
}

bool
Device::SegmentKey::operator==(const SegmentKey& other) const
{
    // Every byte belongs to a field, so this compares doubles bit for bit.
    static_assert(sizeof(SegmentKey) ==
                  2 * sizeof(WorkloadDemand) + 2 * sizeof(double) +
                      (2 * kMaxCpuClusters + 4) * sizeof(int));
    return std::memcmp(this, &other, sizeof(SegmentKey)) == 0;
}

void
Device::RecomputeRates()
{
    monitor_->CatchUp();
    SegmentKey key;
    key.foreground = IdleDemand();
    if (foreground_ != nullptr && !foreground_->Finished()) {
        key.foreground = foreground_->CurrentDemand();
        key.foreground.mem_bytes_per_instr *=
            background_env_.fg_mem_intensity_multiplier;
        key.gpu_units_per_gi = foreground_->CurrentGpuUnitsPerGi();
    }
    key.background = background_->CurrentDemand();
    // Instrumentation steals a slice of foreground compute (§V-A1: the perf
    // tool costs ~4 % at a 1 s sampling period).
    key.cpu_overhead = perf_->cpu_overhead_fraction();
    for (size_t i = 0; i < clusters_.size(); ++i) {
        key.cluster_level[i] = clusters_[i].cluster.level();
        key.online_cores[i] = clusters_[i].cluster.online_cores();
    }
    key.bw_level = bus_.level();
    key.gpu_level = gpu_.level();
    key.placement = placement_;

    SegmentEntry* entry = FindSegment(key);
    if (entry == nullptr) {
        entry = &segments_[next_victim_];
        next_victim_ = (next_victim_ + 1) % kSegmentMemoEntries;
        entry->key = key;
        entry->rates = ComputeRates(key);
        entry->has_power = false;
    }
    if (entry != current_) {
        previous_ = current_;
        current_ = entry;
    }
    power_valid_ = false;
}

Device::SegmentEntry*
Device::FindSegment(const SegmentKey& key)
{
    // Frame apps alternate between a compute and a slack state, so the
    // state before the current one is the likeliest match, then the current
    // one itself (a recompute after a change that moved no input).
    if (previous_->key == key) {
        return previous_;
    }
    if (current_->key == key) {
        return current_;
    }
    for (SegmentEntry& entry : segments_) {
        if (&entry != previous_ && &entry != current_ && entry.key == key) {
            return &entry;
        }
    }
    return nullptr;
}

Device::SegmentRates
Device::ComputeRates(const SegmentKey& key) const
{
    ClusterOperatingPoints operating_points;
    for (const ClusterDomain& domain : clusters_) {
        ClusterOperatingPoint point;
        point.frequency = domain.cluster.frequency();
        point.perf_scale = domain.spec->perf_scale;
        point.online_cores = domain.cluster.online_cores();
        operating_points.push_back(point);
    }
    const SharedRates shared = engine_.ComputeShared(
        key.foreground, key.background, operating_points, key.placement,
        topology_.placement_model().span_penalty, bus_.bandwidth());
    SegmentRates rates;
    rates.fg_gips = shared.foreground.gips * (1.0 - key.cpu_overhead);
    rates.bg_gips = shared.background.gips;
    rates.mem_gbps = shared.foreground.mem_gbps + shared.background.mem_gbps;
    for (size_t i = 0; i < clusters_.size(); ++i) {
        rates.clusters[i] = shared.clusters[i];
        rates.busy_cores += shared.clusters[i].busy_cores;
    }

    // GPU demand follows the foreground's progress (render work per Gi).
    // When the GPU cannot keep up it co-bottlenecks the application.
    if (key.gpu_units_per_gi > 0.0 && rates.fg_gips > 0.0) {
        const double demand_units = rates.fg_gips * key.gpu_units_per_gi;
        const double capacity = gpu_.CapacityAt(key.gpu_level);
        if (demand_units > capacity) {
            rates.fg_gips *= capacity / demand_units;
            rates.gpu_busy = 1.0;
        } else {
            rates.gpu_busy = demand_units / capacity;
        }
    }
    return rates;
}

void
Device::RescheduleBoundary()
{
    if (boundary_event_ != kInvalidEventId) {
        sim_.Cancel(boundary_event_);
        boundary_event_ = kInvalidEventId;
    }
    std::optional<SimTime> next;
    if (foreground_ != nullptr) {
        next = foreground_->TimeToBoundary(current_->rates.fg_gips);
    }
    const std::optional<SimTime> bg_next =
        background_->TimeToBoundary(current_->rates.bg_gips);
    if (bg_next && (!next || *bg_next < *next)) {
        next = bg_next;
    }
    if (!next) {
        return;
    }
    const SimTime delay = std::max(*next, SimTime::Micros(1));
    boundary_event_ = sim_.ScheduleAfter(delay, [this] { OnBoundary(); });
}

void
Device::OnBoundary()
{
    boundary_event_ = kInvalidEventId;
    IntegrateToNow();
    RecomputeRates();
    RescheduleBoundary();
}

void
Device::MaybeFinish()
{
    if (stop_when_app_finishes_ && foreground_ != nullptr &&
        foreground_->Finished()) {
        sim_.Stop();
    }
}

RunResult
Device::CollectResult(const std::string& policy_name) const
{
    RunResult result;
    result.app_name = foreground_ != nullptr ? foreground_->name() : "<none>";
    result.load_name = ToString(background_env_.kind);
    result.policy_name = policy_name;

    result.energy_j = energy_meter_.energy().value();
    result.avg_power_mw = energy_meter_.AveragePower();
    if (monitor_->sample_count() > 0) {
        result.measured_energy_j = monitor_->MeasuredEnergy().value();
        result.measured_avg_power_mw = monitor_->MeasuredAveragePower();
    } else {
        result.measured_energy_j = result.energy_j;
        result.measured_avg_power_mw = result.avg_power_mw;
    }

    result.duration_s = energy_meter_.elapsed().seconds();
    if (foreground_ != nullptr) {
        result.executed_gi = foreground_->total_executed_gi();
        const double elapsed = foreground_->total_elapsed().seconds();
        result.avg_gips = elapsed > 0.0 ? result.executed_gi / elapsed : 0.0;
        result.app_finished = foreground_->Finished();
    }

    for (size_t i = 0; i < clusters_.size(); ++i) {
        result.cluster_residency(i) = clusters_[i].cluster.ResidencyFractions();
        result.cluster_transitions(i) = clusters_[i].cluster.transition_count();
    }
    result.bw_residency = bus_.ResidencyFractions();
    result.gpu_residency = gpu_.ResidencyFractions();
    result.bw_transitions = bus_.transition_count();
    result.loadavg = loadavg_.value();
    return result;
}

}  // namespace aeo
