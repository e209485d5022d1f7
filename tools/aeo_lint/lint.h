/**
 * @file
 * aeo-lint: the repo's domain-invariant checker (DESIGN.md §11, §16).
 *
 * A three-stage semantic analyzer over the tree: a C++ lexer (lexer.h), a
 * per-file semantic model with a name-based call graph across src/, tools/
 * and bench/ (model.h), and the rule families below running over tokens +
 * model. Rule catalogue:
 *
 *  - `layering`          — the include DAG between src/ layers is one-way
 *                          (common → sim → … → platform → core → chaos),
 *                          src/core never includes src/kernel, nothing
 *                          below src/chaos includes it, and the `Device`
 *                          seam is only named by the profiling/experiment
 *                          files.
 *  - `time-seam`         — the policy layers (src/core, src/control)
 *                          consume time only through the aeo::platform
 *                          seam (Clock, DeadlineSupervisor, DESIGN.md
 *                          §13); naming `Simulator` or `PeriodicTask`, or
 *                          calling a raw `sim()`, is a finding there.
 *  - `sysfs-literal`     — inline "/sys/..." string literals appear only in
 *                          src/kernel and src/platform; everyone else goes
 *                          through the interned SysfsHandles seam.
 *  - `cluster-literal`   — hard-coded `cpu<N>`/`policy<N>` string literals
 *                          are confined to src/kernel and src/platform;
 *                          policy code addresses clusters through
 *                          ClusterTopology.
 *  - `test-registration` — every *_test.cc under tests/ is registered in an
 *                          aeo_add_test() call in tests/CMakeLists.txt and
 *                          that call carries at least one ctest label.
 *  - `unit-literal`      — a non-zero numeric literal never flows directly
 *                          into a khz/mbps/mw/ms-suffixed variable or field;
 *                          it must pass through the tagged constructors in
 *                          src/common/units.h.
 *  - `suppression`       — a malformed suppression comment (missing rule or
 *                          justification) is itself a finding.
 *  - `stale-suppression` — a well-formed suppression whose rule no longer
 *                          fires within its window is a finding: dead
 *                          allows rot into blanket permissions.
 *  - `monitor-catalogue` — every `class X : public InvariantMonitor` under
 *                          src/ appears by class name (in code, not a
 *                          comment) in tests/chaos/invariant_monitor_test.cc.
 *  - `bench-snapshot`    — every bench source naming a `BENCH_<x>.json`
 *                          snapshot has a committed bench/snapshots/
 *                          counterpart (perf records exempt via allowlist).
 *  - `determinism`       — reproducibility bans in src/ and bench/:
 *                          std::random_device, rand()/srand(), wall clocks
 *                          (system_clock/steady_clock/high_resolution_clock
 *                          outside the src/platform clock seam), time()/
 *                          clock(), pointer hashing, and unordered-container
 *                          iteration in any function reachable from a
 *                          serialization sink (WriteCsv / *ToJson /
 *                          Serialize / snapshot emitters).
 *  - `hot-path-alloc`    — functions annotated as hot-path entry points
 *                          (and everything reachable from them through the
 *                          call graph) must not allocate: `new`,
 *                          make_unique/make_shared, std::function
 *                          construction, growth calls on std containers,
 *                          and calls into unknown external functions off
 *                          the allowlist are findings. A dangling
 *                          annotation (attached to no function) is too.
 *
 * The call graph is name-based and documented-unsound (DESIGN.md §16):
 * reachability over-approximates by merging same-named functions (scoped
 * to the caller's class when the class defines the name) and stops at the
 * `hot-path-stop` escape annotation; receiver types for growth calls are
 * known only when the declaration is visible somewhere in the tree.
 */
#ifndef AEO_TOOLS_AEO_LINT_LINT_H_
#define AEO_TOOLS_AEO_LINT_LINT_H_

#include <string>
#include <vector>

namespace aeo::lint {

/** One rule violation at a source location. */
struct Finding {
    /** Rule identifier (see file comment). */
    std::string rule;
    /** Path relative to the linted root. */
    std::string file;
    /** 1-based line number. */
    int line = 0;
    /** Human-readable explanation. */
    std::string message;
    /** Actionable remediation, for the JSON artifact and annotations. */
    std::string fix_hint;
};

/** What to lint and how. */
struct LintOptions {
    /** Tree root: the directory holding src/, tests/ and bench/. */
    std::string root;
    /** Worker threads for per-file analysis; 0 = hardware concurrency.
     * Findings are deterministic at any value. */
    int jobs = 0;
};

/** Per-run statistics, for the perf record. */
struct LintStats {
    size_t files_analyzed = 0;
    size_t functions_indexed = 0;
    size_t findings = 0;
};

/** Runs every rule over @p options.root and returns the findings, sorted by
 * (file, line, rule). An empty result means the tree is clean. */
std::vector<Finding> RunLint(const LintOptions& options,
                             LintStats* stats = nullptr);

/** Renders findings as "file:line: [rule] message" lines. */
std::string FormatFindings(const std::vector<Finding>& findings);

/** Renders findings as a deterministic JSON document (the CI artifact):
 * {"schema":1,"findings":[{"rule","file","line","message","fix_hint"}]}. */
std::string FormatFindingsJson(const std::vector<Finding>& findings);

/** Renders findings as GitHub workflow problem annotations, one
 * `::error file=...,line=...,title=...::message` per finding. */
std::string FormatGitHubAnnotations(const std::vector<Finding>& findings);

}  // namespace aeo::lint

#endif  // AEO_TOOLS_AEO_LINT_LINT_H_
