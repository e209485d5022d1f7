/**
 * @file
 * aeo-lint CLI. Usage:
 *
 *     aeo_lint [--root=PATH] [--format=text|json] [--github-annotations]
 *              [--jobs=N] [--out=PATH] [--perf-out=PATH]
 *
 * Lints the tree at PATH (default: the current directory). The default
 * output is one `file:line: [rule] message` per finding; `--format=json`
 * emits the machine-readable findings document instead. `--out=PATH` writes
 * the JSON findings document to PATH regardless of the stdout format (the
 * CI artifact), `--github-annotations` additionally prints GitHub workflow
 * problem annotations, and `--perf-out=PATH` writes a BENCH_lint.json-style
 * perf record (wall time, files, functions, worker count). `--jobs=N` sets
 * the per-file analysis worker count (0 = hardware concurrency).
 *
 * Exit status: 0 clean, 1 findings, 2 bad invocation. CI runs this as a
 * blocking job; see DESIGN.md §11/§16 for the rules and the suppression
 * mechanism.
 */
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/json.h"
#include "lint.h"

namespace {

/** Monotonic wall time for the perf record. This is tooling, not product:
 * the determinism rule bans raw clocks in src/ and bench/ only, and the
 * lint's own timing is exactly the kind of machine-dependent perf record
 * the bench allowlist models. */
double
MonotonicSecondsNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
WriteTextFile(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << contents;
    return static_cast<bool>(out);
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string root = ".";
    std::string format = "text";
    std::string out_path;
    std::string perf_out_path;
    bool github_annotations = false;
    int jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--root=", 7) == 0) {
            root = arg + 7;
        } else if (std::strncmp(arg, "--format=", 9) == 0) {
            format = arg + 9;
            if (format != "text" && format != "json") {
                std::fprintf(stderr,
                             "aeo-lint: --format must be text or json\n");
                return 2;
            }
        } else if (std::strcmp(arg, "--github-annotations") == 0) {
            github_annotations = true;
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            const char* value = arg + 7;
            const char* end = value + std::strlen(value);
            const auto [stop, errc] = std::from_chars(value, end, jobs);
            if (errc != std::errc() || stop != end || jobs < 0) {
                std::fprintf(stderr,
                             "aeo-lint: --jobs must be an integer >= 0, got "
                             "'%s'\n",
                             value);
                return 2;
            }
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            out_path = arg + 6;
        } else if (std::strncmp(arg, "--perf-out=", 11) == 0) {
            perf_out_path = arg + 11;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf(
                "usage: aeo_lint [--root=PATH] [--format=text|json] "
                "[--github-annotations] [--jobs=N] [--out=PATH] "
                "[--perf-out=PATH]\n");
            return 0;
        } else {
            std::fprintf(stderr, "aeo-lint: unknown argument '%s'\n", arg);
            return 2;
        }
    }
    if (!std::filesystem::exists(std::filesystem::path(root) / "src") &&
        !std::filesystem::exists(std::filesystem::path(root) / "tests")) {
        std::fprintf(stderr,
                     "aeo-lint: '%s' has neither src/ nor tests/; pass the "
                     "repo root via --root=PATH\n",
                     root.c_str());
        return 2;
    }

    const double t0 = MonotonicSecondsNow();
    aeo::lint::LintStats stats;
    const std::vector<aeo::lint::Finding> findings =
        aeo::lint::RunLint({.root = root, .jobs = jobs}, &stats);
    const double wall_s = MonotonicSecondsNow() - t0;

    if (!out_path.empty() &&
        !WriteTextFile(out_path,
                       aeo::lint::FormatFindingsJson(findings))) {
        std::fprintf(stderr, "aeo-lint: cannot write --out=%s\n",
                     out_path.c_str());
        return 2;
    }
    if (!perf_out_path.empty()) {
        aeo::JsonValue perf = aeo::JsonValue::MakeObject();
        perf.Set("bench", "aeo_lint");
        perf.Set("kind", "perf_record");
        perf.Set("wall_s", wall_s);
        perf.Set("files_analyzed",
                 static_cast<int64_t>(stats.files_analyzed));
        perf.Set("functions_indexed",
                 static_cast<int64_t>(stats.functions_indexed));
        perf.Set("findings", static_cast<int64_t>(stats.findings));
        perf.Set("jobs", jobs);
        if (!WriteTextFile(perf_out_path, perf.Dump(2) + "\n")) {
            std::fprintf(stderr, "aeo-lint: cannot write --perf-out=%s\n",
                         perf_out_path.c_str());
            return 2;
        }
    }
    if (github_annotations) {
        std::fputs(aeo::lint::FormatGitHubAnnotations(findings).c_str(),
                   stdout);
    }

    if (format == "json") {
        std::fputs(aeo::lint::FormatFindingsJson(findings).c_str(), stdout);
        return findings.empty() ? 0 : 1;
    }
    if (findings.empty()) {
        std::printf("aeo-lint: clean (%zu files, %zu functions, %.2fs)\n",
                    stats.files_analyzed, stats.functions_indexed, wall_s);
        return 0;
    }
    std::fputs(aeo::lint::FormatFindings(findings).c_str(), stdout);
    std::fprintf(stderr, "aeo-lint: %zu finding(s)\n", findings.size());
    return 1;
}
