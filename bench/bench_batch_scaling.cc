/**
 * @file
 * P1 — Batch-layer scaling: wall-clock time of a dense offline profile
 * (the full 18×13 = 234-configuration grid, one run each) executed serially
 * and through the batch layer at increasing worker counts.
 *
 * The profile is the repo's heaviest embarrassingly-parallel workload —
 * every (configuration, run) job builds its own seeded Device — so it is
 * the honest yardstick for the layer: near-linear speedup up to the
 * machine's core count, and bit-identical tables at every worker count
 * (asserted here via ToCsv() comparison, not just claimed).
 *
 * Emits BENCH_batch_scaling.json with wall seconds and speedup per jobs
 * value, plus the measured *serial fraction* of the fan-out: the
 * coordination cost per job of BatchRunner::RunIndexed, and the
 * Amdahl-projected speedup it implies. Measured speedups are bounded by
 * hardware_threads — on a single-core machine they sit at ~1.0 regardless
 * of the layer — so the JSON records the hardware alongside the projection
 * rather than pretending otherwise.
 * --fast shrinks the grid and probes jobs={2} only (CI smoke);
 * --jobs=N is ignored — this bench sweeps the worker count itself.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/app_registry.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/batch_runner.h"
#include "core/offline_profiler.h"
#include "sim/event_queue.h"

int
main(int argc, char** argv)
{
    using namespace aeo;
    SetLogLevel(LogLevel::kWarn);
    const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
    bench::PrintHeader("P1 / batch scaling",
                       "Dense-profile wall clock: serial vs batch workers");

    ProfilerOptions options;
    options.sparse = false;  // the full 18×13 grid
    options.runs = 1;
    options.measure_duration =
        args.fast ? SimTime::FromSeconds(2) : SimTime::FromSeconds(5);
    options.seed = 2017;
    if (args.fast) {
        options.cpu_levels = {0, 8, 17};  // 3×13 = 39 configurations
    }

    const AppSpec app = MakeAppSpecByName("AngryBirds");
    const OfflineProfiler profiler;

    const std::vector<int> sweep =
        args.fast ? std::vector<int>{2} : std::vector<int>{2, 4, 8};

    struct Point {
        int jobs;
        double seconds;
        double speedup;
        bool identical;
    };
    std::vector<Point> points;

    options.batch.jobs = 1;
    const uint64_t events_before = TotalExecutedEvents();
    const double serial_start = bench::MonotonicSeconds();
    const ProfileTable serial_table = profiler.Profile(app, options);
    const double serial_seconds =
        bench::MonotonicSeconds() - serial_start;
    const uint64_t serial_events = TotalExecutedEvents() - events_before;
    const std::string serial_csv = serial_table.ToCsv();
    points.push_back(Point{1, serial_seconds, 1.0, true});

    for (const int jobs : sweep) {
        options.batch.jobs = jobs;
        const double start = bench::MonotonicSeconds();
        const ProfileTable table = profiler.Profile(app, options);
        const double seconds =
            bench::MonotonicSeconds() - start;
        const bool identical = table.ToCsv() == serial_csv;
        if (!identical) {
            std::fprintf(stderr,
                         "FAIL: jobs=%d produced a different table than "
                         "serial — determinism contract broken\n",
                         jobs);
        }
        points.push_back(
            Point{jobs, seconds, seconds > 0.0 ? serial_seconds / seconds : 0.0,
                  identical});
    }

    // ---- Serial-fraction measurement -----------------------------------
    // Time the dispatch machinery itself — trivial jobs, so everything
    // measured is coordination (one atomic fetch_add per job), the part of
    // the fan-out Amdahl's law charges as serial.
    const unsigned hardware_threads =
        std::max(1u, std::thread::hardware_concurrency());
    const size_t coord_tasks = 20000;
    const double coord_start = bench::MonotonicSeconds();
    BatchRunner(BatchOptions{2}).RunIndexed<int>(
        coord_tasks, [](size_t i) { return static_cast<int>(i); });
    const double us_per_task = (bench::MonotonicSeconds() - coord_start) * 1e6 /
                               static_cast<double>(coord_tasks);
    // The grid's serial fraction: coordination time over total serial wall
    // time. Projected speedup at N workers is Amdahl's 1 / (s + (1 - s) / N).
    const double coordination_s =
        us_per_task * static_cast<double>(serial_table.size()) * 1e-6;
    const double s_indexed =
        serial_seconds > 0.0 ? std::min(1.0, coordination_s / serial_seconds) : 0.0;
    const auto amdahl = [](double s, int n) {
        return 1.0 / (s + (1.0 - s) / static_cast<double>(n));
    };

    TextTable text({"Jobs", "Wall (s)", "Speedup", "Projected", "Bit-identical"});
    for (const Point& p : points) {
        text.AddRow({StrFormat("%d", p.jobs), StrFormat("%.2f", p.seconds),
                     StrFormat("%.2fx", p.speedup),
                     StrFormat("%.2fx", amdahl(s_indexed, p.jobs)),
                     p.identical ? "yes" : "NO"});
    }
    std::printf("%s\n", text.ToString().c_str());
    std::printf("hardware threads: %u   coordination/job: %.2f us   "
                "serial fraction: %.4f\n\n",
                hardware_threads, us_per_task, s_indexed);

    std::string json = "{\n  \"bench\": \"batch_scaling\",\n  \"grid_configs\": " +
                       StrFormat("%zu", serial_table.size()) +
                       ",\n  \"hardware_threads\": " +
                       StrFormat("%u", hardware_threads) +
                       ",\n  \"serial_wall_seconds\": " +
                       StrFormat("%.4f", serial_seconds) +
                       ",\n  \"serial_events_per_second\": " +
                       StrFormat("%.0f", serial_seconds > 0.0
                                             ? static_cast<double>(serial_events) /
                                                   serial_seconds
                                             : 0.0) +
                       ",\n  \"coordination\": {\"probe_jobs\": 2, \"tasks\": " +
                       StrFormat("%zu", coord_tasks) +
                       ", \"us_per_task\": " + StrFormat("%.3f", us_per_task) +
                       "},\n  \"serial_fraction\": " +
                       StrFormat("%.6f", s_indexed) +
                       ",\n  \"note\": \"measured speedup is bounded by "
                       "hardware_threads; amdahl_projected_speedup applies the "
                       "measured serial fraction\",\n  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
        json += StrFormat("    {\"jobs\": %d, \"wall_seconds\": %.4f, "
                          "\"speedup\": %.3f, \"amdahl_projected_speedup\": %.3f, "
                          "\"bit_identical\": %s}%s\n",
                          points[i].jobs, points[i].seconds, points[i].speedup,
                          amdahl(s_indexed, points[i].jobs),
                          points[i].identical ? "true" : "false",
                          i + 1 < points.size() ? "," : "");
    }
    json += "  ]\n}\n";
    const std::string json_path = "BENCH_batch_scaling.json";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    AEO_ASSERT(f != nullptr, "cannot open %s", json_path.c_str());
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("Wrote %s\n", json_path.c_str());

    bool all_identical = true;
    for (const Point& p : points) {
        all_identical = all_identical && p.identical;
    }
    return all_identical ? 0 : 1;
}
