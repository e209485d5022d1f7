#include "bench_common.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <system_error>
#include <thread>

#include "common/json.h"
#include "common/strings.h"

namespace aeo::bench {

namespace {

/** Prints what was wrong with @p bad and the usage line, then exits 2. */
[[noreturn]] void
ExitWithUsage(const char* program, const char* bad,
              std::initializer_list<BenchFlag> extra,
              const char* why = "unknown or malformed argument")
{
    std::string usage = StrFormat("usage: %s [--fast] [--jobs=N] [--runs=N] "
                                  "[--seed=S] [--json=PATH]",
                                  program);
    for (const BenchFlag& flag : extra) {
        usage += StrFormat(" [%s=%s]", flag.name, flag.number ? "N" : "VALUE");
    }
    std::fprintf(stderr, "%s: %s '%s'\n%s\n", program, why, bad, usage.c_str());
    std::exit(2);
}

/** @p text, all of it, as a decimal integer that fits a T. */
template <typename T>
bool
ParseNumber(const std::string& text, T* out)
{
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, errc] = std::from_chars(text.data(), end, value);
    if (errc != std::errc() || stop != end) {
        return false;
    }
    *out = value;
    return true;
}

/** Stores @p value into the @p extra flag called @p name; false when there
 * is no such flag or its number is malformed. */
bool
ParseExtraFlag(std::initializer_list<BenchFlag> extra, const std::string& name,
               const std::string& value)
{
    for (const BenchFlag& flag : extra) {
        if (name != flag.name) {
            continue;
        }
        if (flag.number != nullptr) {
            int number = 0;
            if (!ParseNumber(value, &number)) {
                return false;
            }
            *flag.number = number;
            return true;
        }
        *flag.text = value;
        return true;
    }
    return false;
}

}  // namespace

BenchArgs
ParseBenchArgs(int argc, char** argv, std::initializer_list<BenchFlag> extra)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fast") {
            args.fast = true;
            continue;
        }
        const size_t eq = arg.find('=');
        if (eq == std::string::npos) {
            ExitWithUsage(argv[0], argv[i], extra);  // the rest take a value
        }
        const std::string name = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        bool ok = true;
        if (name == "--jobs") {
            ok = ParseNumber(value, &args.batch.jobs);
        } else if (name == "--runs") {
            ok = ParseNumber(value, &args.runs);
        } else if (name == "--seed") {
            ok = ParseNumber(value, &args.seed);
        } else if (name == "--json") {
            args.json = value;
        } else {
            ok = ParseExtraFlag(extra, name, value);
        }
        if (!ok) {
            ExitWithUsage(argv[0], argv[i], extra);
        }
    }
    return args;
}

void
RejectSeed(const BenchArgs& args, const char* program)
{
    if (args.seed != 0) {
        const std::string flag =
            StrFormat("--seed=%llu", static_cast<unsigned long long>(args.seed));
        ExitWithUsage(program, flag.c_str(), {}, "nothing to seed in this bench:");
    }
}

double
MonotonicSeconds()
{
    // aeo-lint: allow(determinism) -- the single sanctioned wall-clock read
    // in bench/; feeds only perf sidecars, never gated snapshot bytes.
    using WallClock = std::chrono::steady_clock;
    return std::chrono::duration<double>(WallClock::now().time_since_epoch())
        .count();
}

void
WriteSnapshotFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path);
    out << text;
    out.close();
    if (!out) {
        // A gate that diffs this path must never pass on a stale file.
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::printf("Wrote %s\n", path.c_str());
}

void
WritePerfMeta(const std::string& snapshot_path, double wall_seconds,
              uint64_t events_executed)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("wall_seconds", StrFormat("%.3f", wall_seconds));
    doc.Set("events_executed", events_executed);
    doc.Set("events_per_second",
            StrFormat("%.6g", wall_seconds > 0.0
                                  ? static_cast<double>(events_executed) /
                                        wall_seconds
                                  : 0.0));
    doc.Set("hardware_threads",
            static_cast<int>(std::thread::hardware_concurrency()));
    WriteSnapshotFile(snapshot_path + ".perf.json", doc.Dump(2) + "\n");
}

void
PrintHeader(const std::string& experiment_id, const std::string& title)
{
    std::printf("\n================================================================\n");
    std::printf("%s — %s\n", experiment_id.c_str(), title.c_str());
    std::printf("Reproduction of Rao et al., HPCA 2017 (simulated Nexus 6)\n");
    std::printf("================================================================\n\n");
}

std::vector<std::string>
CpuLevelLabels()
{
    std::vector<std::string> labels;
    for (int level = 1; level <= 18; ++level) {
        labels.push_back(StrFormat("f%02d", level));
    }
    return labels;
}

std::vector<std::string>
BwLevelLabels()
{
    std::vector<std::string> labels;
    for (int level = 1; level <= 13; ++level) {
        labels.push_back(StrFormat("bw%02d", level));
    }
    return labels;
}

std::string
RenderResidency(const std::vector<double>& fractions,
                const std::vector<std::string>& labels)
{
    std::string out;
    double max_fraction = 0.0;
    for (const double f : fractions) {
        max_fraction = f > max_fraction ? f : max_fraction;
    }
    for (size_t i = 0; i < fractions.size(); ++i) {
        const size_t bar =
            max_fraction > 0.0
                ? static_cast<size_t>(fractions[i] / max_fraction * 40.0 + 0.5)
                : 0;
        out += StrFormat("  %-5s %6.2f%% |%s\n", labels[i].c_str(),
                         fractions[i] * 100.0, std::string(bar, '#').c_str());
    }
    return out;
}

void
PrintResidencyComparison(const std::string& app, const aeo::RunResult& default_run,
                         const aeo::RunResult& controller_run, bool bandwidth)
{
    const auto labels = bandwidth ? BwLevelLabels() : CpuLevelLabels();
    const auto& def = bandwidth ? default_run.bw_residency : default_run.cpu_residency;
    const auto& ctl =
        bandwidth ? controller_run.bw_residency : controller_run.cpu_residency;
    std::printf("--- %s: default governor ---\n%s", app.c_str(),
                RenderResidency(def, labels).c_str());
    std::printf("--- %s: our controller ---\n%s\n", app.c_str(),
                RenderResidency(ctl, labels).c_str());
}

}  // namespace aeo::bench
