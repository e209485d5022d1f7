/**
 * @file
 * Shared helpers for the experiment harness binaries in bench/: consistent
 * headers, level labels, and residency rendering for the figure benches.
 */
#ifndef AEO_BENCH_BENCH_COMMON_H_
#define AEO_BENCH_BENCH_COMMON_H_

#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_runner.h"
#include "device/run_result.h"

namespace aeo::bench {

/** Command-line options shared by the harness binaries. */
struct BenchArgs {
    /** --fast: reduced grids/durations for CI smoke runs. */
    bool fast = false;
    /** --jobs=N: batch-layer worker count (default: all hardware threads).
     * Results are bit-identical at any value; only wall-clock changes. */
    BatchOptions batch;
    /** --runs=N: overrides the bench's profiling run count (0 = use the
     * bench default, which usually depends on --fast). */
    int runs = 0;
    /** --json=PATH: overrides the path of the bench's determinism-gated
     * snapshot. */
    std::string json;
    /** --seed=S: overrides the bench's root seed (0 = use the bench
     * default). Every derived seed (profiler, devices, campaigns) is an
     * offset of this root, so one flag re-seeds the whole experiment. */
    uint64_t seed = 0;

    /** Profiling run count: the --runs override if given, else the bench
     * default for the current speed mode. */
    int ProfileRuns(int full_default = 3, int fast_default = 1) const
    {
        if (runs > 0) {
            return runs;
        }
        return fast ? fast_default : full_default;
    }

    /** Snapshot path: the --json override if given, else @p default_name. */
    std::string JsonPath(const std::string& default_name) const
    {
        return json.empty() ? default_name : json;
    }

    /** Root seed: the --seed override if given, else @p fallback. */
    uint64_t SeedOr(uint64_t fallback) const
    {
        return seed != 0 ? seed : fallback;
    }
};

/** A bench's own `--name=VALUE` flag (e.g. table3/4's `--baseline`), accepted
 * besides the shared ones. A bench rejects every flag it does not declare. */
struct BenchFlag {
    BenchFlag(const char* flag_name, std::string* text_value)
        : name(flag_name), text(text_value)
    {
    }
    BenchFlag(const char* flag_name, std::optional<int>* number_value)
        : name(flag_name), number(number_value)
    {
    }

    /** The flag including its dashes, e.g. "--replay". */
    const char* name;
    /** Receives VALUE verbatim, or (number) parsed as a decimal integer. */
    std::string* text = nullptr;
    std::optional<int>* number = nullptr;
};

/**
 * Parses the shared flags --fast, --jobs=N, --runs=N, --seed=S and
 * --json=PATH, plus the bench's own @p extra flags, anywhere in argv. Any
 * other argument or a malformed number prints a usage line to stderr and
 * exits with status 2, so a misspelt flag can never silently run the full
 * sweep.
 */
BenchArgs ParseBenchArgs(int argc, char** argv,
                         std::initializer_list<BenchFlag> extra = {});

/**
 * For a bench with no randomness: when @p args carries a --seed, prints the
 * usage line and exits with status 2 instead of ignoring the flag.
 */
void RejectSeed(const BenchArgs& args, const char* program);

/**
 * Monotonic wall time in seconds, for perf sidecars and progress lines.
 * This is the one sanctioned wall-clock read in bench/: everything a
 * snapshot gate diffs must come from simulated time, and aeo-lint's
 * determinism rule bans raw std::chrono clocks outside this helper so a
 * wall-clock read can never silently leak into gated bytes.
 */
double MonotonicSeconds();

/** Writes @p text (a snapshot, or a robustness bench's CSV) to @p path and
 * prints a "Wrote" line. A path that cannot be written stops the bench with
 * exit status 1. */
void WriteSnapshotFile(const std::string& path, const std::string& text);

/**
 * Writes the non-deterministic perf sidecar `<snapshot_path>.perf.json`:
 * wall seconds, simulated events executed (TotalExecutedEvents delta over
 * the bench), events/sec, and hardware threads. Kept out of the snapshot
 * itself so the byte-for-byte CI gate only ever sees deterministic bytes;
 * CI uploads the sidecars as artifacts for trend tracking.
 */
void WritePerfMeta(const std::string& snapshot_path, double wall_seconds,
                   uint64_t events_executed);

/** Prints a banner naming the experiment and the paper artifact. */
void PrintHeader(const std::string& experiment_id, const std::string& title);

/** Labels "1".."18" / "1".."13" for residency charts (paper numbering). */
std::vector<std::string> CpuLevelLabels();
std::vector<std::string> BwLevelLabels();

/** Renders a residency vector as an ASCII bar chart. */
std::string RenderResidency(const std::vector<double>& fractions,
                            const std::vector<std::string>& labels);

/** Prints two residency charts side by side contextually (default, ours). */
void PrintResidencyComparison(const std::string& app,
                              const aeo::RunResult& default_run,
                              const aeo::RunResult& controller_run, bool bandwidth);

}  // namespace aeo::bench

#endif  // AEO_BENCH_BENCH_COMMON_H_
