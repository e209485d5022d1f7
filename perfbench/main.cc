/**
 * @file
 * The repository benchmark (see README.md):
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
 *
 * Run it from the repository root (committed snapshots are read from
 * bench/snapshots/ there).
 *
 * Sets the workload up several times, then runs passes of its timed phase
 * until S seconds of host time are measured; an untraced run sets up again
 * after every pass (setup_s is the median over all set-ups). It
 * prints a human-readable report — every number tagged host or simulated —
 * and, as the last stdout line, one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics with --trace 0, the
 * per-layer metrics with --trace 1. A traced run alternates untraced and
 * traced passes (trace.overhead_pct compares them) and then runs the
 * standalone layer probes.
 *
 * Exit status: 0 when a result was printed (correct or not), 2 for a
 * command-line error, 1 when the run failed before producing a result.
 */
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "common/logging.h"
#include "probes.h"
#include "sim/event_queue.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/** Worker count: a fixed 4, never more than the hardware has. */
constexpr int kWorkers = 4;
/** Set-up repetitions per slice: at least one (kMinSetupReps in the first
 * slice), more while under kSetupSliceS. Only the first
 * kMaxTracedSetupReps of the run record spans. */
constexpr size_t kMinSetupReps = 3;
constexpr size_t kMaxSliceReps = 2000;
constexpr double kSetupSliceS = 0.05;
constexpr size_t kMaxTracedSetupReps = 200;
/** Repetitions of each standalone probe. */
constexpr int kProbeReps = 5;

struct Args {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    int workers = 0;
    std::string spans;
};

int
HardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

[[noreturn]] void
Usage(const std::string& error)
{
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n"
                 "workloads:");
    for (const std::string& name : WorkloadNames()) {
        std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

uint64_t
ParseUnsigned(const std::string& flag, const std::string& text)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
        Usage(flag + " needs a non-negative integer, got '" + text + "'");
    }
    return value;
}

/** Strict parser: every flag known, given once, with a valid value. */
Args
ParseArgs(int argc, char** argv)
{
    std::map<std::string, std::string> values;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        const size_t eq = flag.find('=');
        if (flag.rfind("--", 0) != 0) {
            Usage("unexpected argument '" + flag + "'");
        }
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            Usage(flag + " needs a value");
        }
        if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
            flag != "--trace" && flag != "--spans") {
            Usage("unknown flag '" + flag + "'");
        }
        if (!values.emplace(flag, value).second) {
            Usage(flag + " given twice");
        }
    }
    for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
        if (values.count(required) == 0) {
            Usage(std::string(required) + " is required");
        }
    }
    Args args;
    args.workload = values["--workload"];
    args.seed = ParseUnsigned("--seed", values["--seed"]);
    args.seconds = static_cast<double>(ParseUnsigned("--seconds", values["--seconds"]));
    if (args.seconds < 1.0 || args.seconds > 3600.0) {
        Usage("--seconds must be within 1..3600");
    }
    const std::string& trace = values["--trace"];
    if (trace != "0" && trace != "1") {
        Usage("--trace must be 0 or 1");
    }
    args.trace = trace == "1";
    args.workers = std::min(kWorkers, HardwareThreads());
    if (values.count("--spans") != 0) {
        args.spans = values["--spans"];
    }
    return args;
}

/** Peak resident set of this process, MiB (VmHWM). */
double
PeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

/** One reported number. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /** "host" or "simulated". */
    const char* kind = "host";
    /** Sample count and spread for timings, or a remark. */
    std::string note;
};

/** "median of n (p25 a, p75 b[, pQ c])": a timing summary with
 * the highest percentile that still has ten samples beyond it. */
std::string
TimingNote(const std::vector<double>& samples, double scale)
{
    if (samples.empty()) {
        return "n=0";
    }
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), "median of n=%zu, p25 %.6g, p75 %.6g",
                  samples.size(), Percentile(samples, 25.0) * scale,
                  Percentile(samples, 75.0) * scale);
    std::string note = buffer;
    const double q = samples.size() > 10
                         ? std::floor(100.0 * static_cast<double>(samples.size() - 10) /
                                      static_cast<double>(samples.size()))
                         : 0.0;
    if (q > 75.0) {
        std::snprintf(buffer, sizeof(buffer), ", p%.0f %.6g", q,
                      Percentile(samples, q) * scale);
        note += buffer;
    }
    return note;
}

Metric
Timing(const std::string& name, const std::vector<double>& seconds, double scale,
       const std::string& unit)
{
    return Metric{name, Median(seconds) * scale, unit, "host",
                  TimingNote(seconds, scale)};
}

Metric
Count(const std::string& name, double value)
{
    return Metric{name, value, "count", "simulated", ""};
}

double
Ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/** Σ job span time ÷ (threads that ran jobs · pass wall), and the idle
 * tail: from the first such thread's last job end to the last one's, per
 * traced pass. */
void
BatchShape(const std::vector<Span>& spans, const std::vector<double>& pass_walls,
           std::vector<double>* efficiency, std::vector<double>* tail)
{
    for (size_t pass = 0; pass < pass_walls.size(); ++pass) {
        double busy = 0.0;
        std::map<int, double> last_end;
        for (const Span& span : spans) {
            if (span.pass != static_cast<int>(pass) || std::string(span.name) != "job") {
                continue;
            }
            busy += span.seconds();
            double& end = last_end[span.thread];
            end = std::max(end, span.end_s);
        }
        if (last_end.empty()) {
            continue;
        }
        double first = last_end.begin()->second;
        double last = first;
        for (const auto& [thread, end] : last_end) {
            first = std::min(first, end);
            last = std::max(last, end);
        }
        efficiency->push_back(
            Ratio(busy, static_cast<double>(last_end.size()) * pass_walls[pass]));
        tail->push_back(last - first);
    }
}

void
PrintTable(const char* title, const std::vector<Metric>& metrics)
{
    std::printf("\n%s\n", title);
    std::printf("  %-24s %16s  %-9s %-9s %s\n", "metric", "value", "unit", "kind",
                "note");
    for (const Metric& metric : metrics) {
        std::printf("  %-24s %16.6g  %-9s %-9s %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str(), metric.kind,
                    metric.note.c_str());
    }
}

/** The result line: last line of stdout, every value with all its digits. */
void
PrintResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
Run(const Args& args)
{
    const BenchConfig config{args.seed, args.workers};
    std::unique_ptr<Workload> workload = MakeWorkload(args.workload, config);
    if (workload == nullptr) {
        Usage("unknown workload '" + args.workload + "'");
    }
    std::printf("perfbench: workload=%s seed=%llu seconds=%.0f trace=%d "
                "workers=%d hardware_threads=%d\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, args.workers, HardwareThreads());

    Tracer tracer;
    Tracer* const setup_tracer = args.trace ? &tracer : nullptr;
    tracer.SetPass(-1);  // Set-up spans.
    // Host slowness relative to the reference, by the kernel that resembles
    // the workload's set-up (calibrate.h).
    auto setup_slowness = [&] {
        return workload->setup_simulates()
                   ? CalibrationSeconds(args.workers) / kReferenceCalibrationS
                   : SetUpCalibrationSeconds() / kReferenceSetUpCalibrationS;
    };
    // Set-up is timed in slices: one before the timed phase and, untraced,
    // one after every pass, so that a sub-millisecond set-up is sampled
    // across the host's drift over the whole run. Each slice is calibrated
    // by the kernel timed around it.
    std::vector<double> setup_s;
    std::vector<double> setup_raw_s;
    auto set_up_slice = [&](size_t min_reps) {
        const double before = setup_slowness();
        const size_t first = setup_raw_s.size();
        double total = 0.0;
        while (setup_raw_s.size() - first < min_reps ||
               (total < kSetupSliceS && setup_raw_s.size() - first < kMaxSliceReps)) {
            const double start = NowSeconds();
            workload->SetUp(setup_raw_s.size() < kMaxTracedSetupReps ? setup_tracer
                                                                     : nullptr);
            setup_raw_s.push_back(NowSeconds() - start);
            total += setup_raw_s.back();
        }
        const double slowness = 0.5 * (before + setup_slowness());
        for (size_t i = first; i < setup_raw_s.size(); ++i) {
            setup_s.push_back(setup_raw_s[i] / slowness);
        }
    };
    set_up_slice(kMinSetupReps);

    // --- Timed phase -------------------------------------------------------
    std::vector<double> untraced_walls;
    /** Untraced pass walls at the reference speed (calibrate.h): each at the
     * mean of the kernel times right before and right after it. */
    std::vector<double> calibrated_walls;
    std::vector<double> pass_cals;
    std::vector<double> traced_walls;
    std::optional<PassOutput> reference;
    std::optional<PassOutput> first_traced;
    uint64_t traced_events = 0;
    double traced_cpu_s = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t violated = 0;
    bool identical = true;
    const double measure_start = NowSeconds();
    for (int pass = 0;; ++pass) {
        const bool traced = args.trace && pass % 2 == 1;
        if (traced) {
            tracer.SetPass(static_cast<int>(traced_walls.size()));
        }
        const double cal_before = traced ? 0.0 : CalibrationSeconds(args.workers);
        const uint64_t events_before = aeo::TotalExecutedEvents();
        const std::clock_t cpu_before = std::clock();
        const double start = NowSeconds();
        PassOutput output = workload->RunPass(traced ? &tracer : nullptr);
        const double wall = NowSeconds() - start;
        if (traced) {
            traced_walls.push_back(wall);
            traced_cpu_s += static_cast<double>(std::clock() - cpu_before) / CLOCKS_PER_SEC;
        } else {
            pass_cals.push_back(0.5 * (cal_before + CalibrationSeconds(args.workers)));
            untraced_walls.push_back(wall);
            calibrated_walls.push_back(wall * kReferenceCalibrationS / pass_cals.back());
        }
        attempted += output.attempted;
        failed += output.failed;
        violated += output.violated;
        if (!reference) {
            reference = std::move(output);
        } else {
            identical = identical && output.fingerprint == reference->fingerprint;
            if (traced && !first_traced) {
                traced_events = aeo::TotalExecutedEvents() - events_before;
                first_traced = std::move(output);
            }
        }
        if (!args.trace) {
            set_up_slice(1);
        }
        const bool have_both = !args.trace || !traced_walls.empty();
        if (have_both && NowSeconds() - measure_start >= args.seconds) {
            break;
        }
    }
    const PassOutput& out = *reference;
    const Quality quality = workload->Summarize(out);

    // --- Correctness -------------------------------------------------------
    std::string snapshot_note;
    std::vector<std::string> problems = out.problems;
    for (std::string& problem : workload->CompareSnapshot(out, &snapshot_note)) {
        problems.push_back("snapshot: " + std::move(problem));
    }
    if (!identical) {
        problems.push_back(args.trace
                               ? "traced and untraced passes differ in simulated output"
                               : "repeated passes differ in simulated output");
    }

    // --- Metrics -----------------------------------------------------------
    std::vector<Metric> result;
    if (!args.trace) {
        // Host times at the reference speed (calibrate.h); raw ones below.
        const double wall = Median(calibrated_walls);
        result = {
            Timing("wall_s", calibrated_walls, 1.0, "s"),
            Metric{"sim_rate", Ratio(out.sim_seconds, wall), "sim_s/s", "host",
                   "simulated device-seconds per reference-host second"},
            Timing("setup_s", setup_s, 1.0, "s"),
            Metric{"energy_ratio", 1.0 - quality.energy_savings_pct / 100.0,
                   "ratio", "simulated",
                   "controller energy / stock-governor energy"},
            Metric{"perf_ratio", 1.0 + quality.perf_delta_pct / 100.0, "ratio",
                   "simulated", "worst app or campaign performance / baseline"},
        };
        std::vector<Metric> extra = {
            // Peak memory stays out of the result line: on chaos_campaigns
            // it depends on which campaigns' fault traces overlap in time.
            Metric{"peak_rss_mb", PeakRssMb(), "MiB", "host", "VmHWM"},
            Timing("wall_s_raw", untraced_walls, 1.0, "s"),
            Timing("setup_s_raw", setup_raw_s, 1.0, "s"),
            Metric{"host_speed", kReferenceCalibrationS / Median(pass_cals),
                   "ratio", "host",
                   "reference kernel time / this host's, median over passes"},
            Metric{"energy_savings_pct", quality.energy_savings_pct, "%",
                   "simulated", "= (1 - energy_ratio) * 100"},
            Metric{"fail_frac", Ratio(static_cast<double>(failed + violated),
                                      static_cast<double>(attempted)),
                   "ratio", "simulated",
                   std::to_string(failed) + " failed + " + std::to_string(violated) +
                       " violated of " + std::to_string(attempted) + " operations"},
            Metric{"perf_delta_pct", quality.perf_delta_pct, "%", "simulated",
                   "= (perf_ratio - 1) * 100"},
        };
        if (quality.paper_err_pp) {
            extra.push_back(Metric{"paper_err_pp", *quality.paper_err_pp, "pp",
                                   "simulated", "vs paper Table III energy savings"});
        }
        PrintTable("End-to-end metrics (result line; host times at the reference "
                   "host speed, see host_speed)",
                   result);
        PrintTable("Also reported (not in the result line)", extra);
        if (!quality.paper_err_pp) {
            std::printf("  paper_err_pp: unvalidated (no published reference for "
                        "this workload)\n");
        }
    } else {
        const PassOutput& traced = *first_traced;
        const std::vector<Span> spans = tracer.spans();
        std::vector<double> efficiency;
        std::vector<double> tail;
        BatchShape(spans, traced_walls, &efficiency, &tail);

        const ProbeInputs inputs = workload->Probes(traced);
        const std::vector<double> dispatch_ns = ProbeDispatchNs(kProbeReps);
        const std::vector<double> sample_ns = ProbeSampleNs(kProbeReps);
        const MeterTimings meter = ProbeMeterCost(
            inputs.device_config, inputs.pinned_sample.front().second,
            inputs.pinned_sample.front().first, kProbeReps);
        const std::vector<double> pinned_ms =
            ProbePinnedRunMs(inputs.device_config, inputs.pinned_sample);
        std::vector<double> optimize_us;
        for (const auto& [table, speedups] : inputs.replays) {
            for (const double us : ProbeOptimizeUs(table, speedups)) {
                optimize_us.push_back(us);
            }
        }
        const LayerCounts& c = traced.counts;
        uint64_t fault_events = 0;
        uint64_t violations = 0;
        uint64_t missed_ticks = 0;
        for (const aeo::chaos::CampaignReport& report : traced.campaigns) {
            fault_events += report.fault_events;
            violations += report.total_violations;
            missed_ticks += report.missed_ticks;
        }
        auto u = [](uint64_t value) { return static_cast<double>(value); };
        const double events = u(traced_events);
        result = {
            Count("sim.events", events),
            Metric{"sim.dispatch_ns", Median(dispatch_ns), "ns", "host",
                   TimingNote(dispatch_ns, 1.0) + "; bare 5 kHz series"},
            Metric{"sim.event_cost_ns",
                   Ratio(traced_cpu_s * 1e9, events * u(traced_walls.size())), "ns",
                   "host", "process CPU time per simulated event, traced passes"},
            Metric{"power.sample_share", Ratio(u(c.monitor_samples), u(c.driven_events)),
                   "ratio", "simulated", "Monsoon samples per dispatched event"},
            Metric{"power.sample_ns", Median(sample_ns), "ns", "host",
                   TimingNote(sample_ns, 1.0) + "; standalone monitor"},
            Metric{"power.meter_share", 1.0 - Ratio(Median(meter.slow_s), Median(meter.full_s)),
                   "ratio", "host",
                   "1 - t(1 Hz)/t(5 kHz), n=" + std::to_string(meter.full_s.size())},
            Metric{"power.meter_err_pct", quality.meter_err_pct, "%", "simulated",
                   "(measured - exact)/exact energy"},
            Count("device.runs", u(c.device_builds)),
            Timing("device.build_us", tracer.Durations("device.build"), 1e6, "us"),
            Timing("device.pinned_run_ms", pinned_ms, 1.0, "ms"),
            Timing("kernel.stock_run_ms", tracer.Durations("stock_run"), 1e3, "ms"),
            Count("kernel.dvfs_transitions", u(quality.dvfs_transitions)),
            Count("platform.writes", u(c.platform_writes)),
            Count("platform.failed_ops", u(c.platform_failed_ops)),
            Timing("core.profile_ms", tracer.Durations("profile"), 1e3, "ms"),
            Count("core.profile_configs", u(c.profile_configs)),
            Timing("core.controller_run_ms", tracer.Durations("controller_run"), 1e3, "ms"),
            Count("core.cycles", u(c.cycles)),
            Metric{"core.optimize_us", Median(optimize_us), "us", "host",
                   TimingNote(optimize_us, 1.0) + "; replayed required speedups"},
            Count("core.degraded_cycles", u(c.degraded_cycles)),
            Count("core.safe_mode_cycles", u(c.safe_mode_cycles)),
            Count("core.fallbacks", u(c.fallbacks)),
            Metric{"core.batch_efficiency", Median(efficiency), "ratio", "host",
                   TimingNote(efficiency, 1.0)},
            Timing("core.batch_tail_s", tail, 1.0, "s"),
            Metric{"core.job_p50_ms", Median(tracer.Durations("job")) * 1e3, "ms", "host",
                   TimingNote(tracer.Durations("job"), 1e3)},
            Metric{"core.job_max_ms",
                   Percentile(tracer.Durations("job"), 100.0) * 1e3, "ms", "host",
                   "max over every traced job"},
            Count("fault.events", u(fault_events)),
            Count("chaos.violations", u(violations)),
            Count("chaos.missed_ticks", u(missed_ticks)),
            Timing("chaos.campaign_ms", tracer.Durations("campaign"), 1e3, "ms"),
            Count("soc.grid_configs", u(workload->grid_configs())),
            Timing("soc.enumerate_ms", tracer.Durations("enumerate"), 1e3, "ms"),
            Metric{"trace.overhead_pct",
                   (Ratio(Median(traced_walls), Median(untraced_walls)) - 1.0) * 100.0,
                   "%", "host",
                   "traced vs untraced pass wall, n=" +
                       std::to_string(traced_walls.size()) + "/" +
                       std::to_string(untraced_walls.size())},
        };
        PrintTable("Per-layer metrics (result line)", result);
        if (!args.spans.empty()) {
            if (tracer.WriteChromeTrace(args.spans)) {
                std::printf("  spans: %zu written to %s\n", spans.size(),
                            args.spans.c_str());
            } else {
                problems.push_back("cannot write spans to " + args.spans);
            }
        }
    }

    for (const Metric& metric : result) {
        if (!std::isfinite(metric.value)) {
            problems.push_back(metric.name + " is not finite");
        }
    }
    std::printf("\nRun: %zu untraced + %zu traced passes; set-up x%zu; "
                "workers=%d hardware_threads=%d\n",
                untraced_walls.size(), traced_walls.size(), setup_s.size(),
                args.workers, HardwareThreads());
    std::printf("Simulated: %.6g device-seconds per pass; of %llu operations "
                "%llu failed and %llu violated an invariant; snapshot compared: %s\n",
                out.sim_seconds, static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(violated), snapshot_note.c_str());
    std::printf("Correctness: %s\n", problems.empty() ? "all checks hold" : "FAILED");
    for (const std::string& problem : problems) {
        std::printf("  - %s\n", problem.c_str());
    }
    for (Metric& metric : result) {
        if (!std::isfinite(metric.value)) {
            metric.value = 0.0;
        }
    }
    PrintResult(problems.empty(), attempted, failed, result);
    return 0;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    aeo::SetLogLevel(aeo::LogLevel::kQuiet);
    const perfbench::Args args = perfbench::ParseArgs(argc, argv);
    try {
        return perfbench::Run(args);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
