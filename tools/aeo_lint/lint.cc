#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/json.h"
#include "core/batch_runner.h"
#include "lexer.h"
#include "model.h"

namespace aeo::lint {

namespace fs = std::filesystem;

namespace {

bool
IsIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool
HasSuffix(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
IsPunct(const Token& t, const char* text)
{
    return t.kind == TokKind::kPunct && t.text == text;
}

/** One analyzed file: the semantic model plus its per-file findings (raw,
 * before suppression filtering). */
struct AnalyzedFile {
    TranslationUnit tu;
    std::vector<Finding> findings;
};

/**
 * The include-layering contract (DESIGN.md §11): each src/ directory may
 * include only from the listed directories. This is the one-way DAG
 * common → {sim,stats,control} → {fault,soc} → {power,kernel,apps}
 * → device → platform → core → chaos, with core's device access further
 * restricted to the profiling-harness seam files below. The chaos layer
 * sits on top and may see everything; nothing below it may include it —
 * the product must not know its chaos harness exists. lp holds the
 * reference LP solvers, which only tests and the E9 bench use: no layer
 * may include it, so a second optimizer cannot re-enter the product.
 */
const std::map<std::string, std::set<std::string>>&
AllowedIncludes()
{
    static const std::map<std::string, std::set<std::string>> kAllowed = {
        {"common", {"common"}},
        {"sim", {"common", "sim"}},
        {"stats", {"common", "stats"}},
        {"lp", {"common", "lp"}},
        {"control", {"common", "control"}},
        {"fault", {"common", "sim", "fault"}},
        {"soc", {"common", "sim", "soc"}},
        {"power", {"common", "sim", "fault", "power"}},
        {"kernel", {"common", "sim", "soc", "fault", "kernel"}},
        {"apps", {"common", "sim", "soc", "apps"}},
        {"device",
         {"common", "sim", "stats", "soc", "fault", "power", "kernel", "apps",
          "device"}},
        {"platform",
         {"common", "sim", "stats", "soc", "fault", "power", "kernel", "apps",
          "device", "platform"}},
        {"core",
         {"common", "sim", "stats", "control", "soc", "fault", "power", "apps",
          "platform", "core"}},
        {"chaos",
         {"common", "sim", "stats", "control", "soc", "fault", "power",
          "kernel", "apps", "device", "platform", "core", "chaos"}},
    };
    return kAllowed;
}

/** src/core files allowed to include src/device and name `Device`: the
 * offline-profiling / experiment harness seam (PR 4 contract). */
bool
IsCoreDeviceSeam(const std::string& rel_path)
{
    static const std::set<std::string> kSeams = {
        "src/core/experiment.h",       "src/core/experiment.cc",
        "src/core/offline_profiler.h", "src/core/offline_profiler.cc",
    };
    return kSeams.count(rel_path) > 0;
}

/** Directories where the unit-literal rule is enforced (the hot-path layers
 * that have adopted the tagged unit types in common/units.h). */
bool
UnitRuleApplies(const std::string& layer)
{
    static const std::set<std::string> kLayers = {
        "common", "soc", "core", "device", "platform", "chaos"};
    return kLayers.count(layer) > 0;
}

/** Second path component of "src/<layer>/...", or "" if not under src/. */
std::string
LayerOf(const std::string& rel_path)
{
    if (rel_path.rfind("src/", 0) != 0) return "";
    const size_t start = 4;
    const size_t slash = rel_path.find('/', start);
    if (slash == std::string::npos) return "";
    return rel_path.substr(start, slash - start);
}

void
AddFinding(AnalyzedFile* file, int line, const std::string& rule,
           const std::string& message, const std::string& fix_hint)
{
    file->findings.push_back(
        Finding{rule, file->tu.rel_path, line, message, fix_hint});
}

/** Rule `suppression`: malformed control comments are findings themselves,
 * so a typo'd rule name or a missing justification cannot silently disable
 * a check. */
void
CheckSuppressions(AnalyzedFile* file)
{
    for (const int line : file->tu.lexed.malformed_allows) {
        AddFinding(file, line, "suppression",
                   "malformed aeo control comment",
                   "use `// aeo-lint: allow(<rule>) -- <justification>` (or "
                   "a justified hot-path-stop annotation)");
    }
}

/** Quoted #include paths as (line, path) pairs. */
std::vector<std::pair<int, std::string>>
QuotedIncludes(const TranslationUnit& tu)
{
    std::vector<std::pair<int, std::string>> out;
    const std::vector<Token>& toks = tu.lexed.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!toks[i].preprocessor || !IsPunct(toks[i], "#")) continue;
        if (toks[i + 1].kind != TokKind::kIdent ||
            toks[i + 1].text != "include") {
            continue;
        }
        if (toks[i + 2].kind == TokKind::kString) {
            out.emplace_back(toks[i + 2].line, toks[i + 2].text);
        }
    }
    return out;
}

/** Rule `layering`: project-relative includes must follow the DAG, and only
 * the harness seam files in src/core may touch src/device. */
void
CheckLayering(AnalyzedFile* file)
{
    const TranslationUnit& tu = file->tu;
    const std::string layer = LayerOf(tu.rel_path);
    const auto it = AllowedIncludes().find(layer);
    if (it == AllowedIncludes().end()) return;
    const std::set<std::string>& allowed = it->second;

    for (const auto& [line, literal] : QuotedIncludes(tu)) {
        const size_t slash = literal.find('/');
        if (slash == std::string::npos) continue;
        const std::string target = literal.substr(0, slash);
        if (AllowedIncludes().count(target) == 0) continue;  // not a layer
        if (layer == "core" && target == "device") {
            if (!IsCoreDeviceSeam(tu.rel_path)) {
                AddFinding(file, line, "layering",
                           "src/core may include src/device only from the "
                           "profiling-harness seam (experiment, "
                           "offline_profiler)",
                           "route hardware access through aeo::platform "
                           "instead");
            }
            continue;
        }
        if (allowed.count(target) == 0) {
            AddFinding(file, line, "layering",
                       "src/" + layer + " must not include src/" + target,
                       "respect the include DAG: common -> sim/stats/"
                       "control -> fault/soc -> power/kernel/apps -> device "
                       "-> platform -> core -> chaos (lp is for tests and "
                       "benches only)");
        }
    }

    // The `Device` seam type may only be named by the harness seam files.
    if (layer == "core" && !IsCoreDeviceSeam(tu.rel_path)) {
        for (const Token& t : tu.lexed.tokens) {
            if (t.kind == TokKind::kIdent && t.text == "Device") {
                AddFinding(file, t.line, "layering",
                           "src/core may name `Device` only in the "
                           "profiling-harness seam files",
                           "the controller talks to hardware through "
                           "aeo::platform");
            }
        }
    }
}

/** Rule `time-seam`: the policy layers (src/core, src/control) consume time
 * only through the aeo::platform seam — Clock and DeadlineSupervisor
 * (DESIGN.md §13). */
void
CheckTimeSeam(AnalyzedFile* file)
{
    const TranslationUnit& tu = file->tu;
    const std::string layer = LayerOf(tu.rel_path);
    if (layer != "core" && layer != "control") return;
    const std::vector<Token>& toks = tu.lexed.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent) continue;
        bool hit = t.text == "Simulator" || t.text == "PeriodicTask";
        // Only the call form `sim(...)` is raw time access.
        if (t.text == "sim" && i + 1 < toks.size() &&
            IsPunct(toks[i + 1], "(")) {
            hit = true;
        }
        if (hit) {
            AddFinding(file, t.line, "time-seam",
                       "src/" + layer +
                           " consumes time only through the aeo::platform "
                           "seam (Clock, DeadlineSupervisor)",
                       "do not name Simulator/PeriodicTask or call a raw "
                       "sim() here (DESIGN.md §13)");
        }
    }
}

/** Rule `sysfs-literal`: inline "/sys..." strings belong to src/kernel and
 * src/platform; everything else must use the interned constants. */
void
CheckSysfsLiterals(AnalyzedFile* file)
{
    const TranslationUnit& tu = file->tu;
    const std::string layer = LayerOf(tu.rel_path);
    if (layer.empty() || layer == "kernel" || layer == "platform") return;
    for (const Token& t : tu.lexed.tokens) {
        if (t.kind == TokKind::kString && t.text.rfind("/sys", 0) == 0) {
            AddFinding(file, t.line, "sysfs-literal",
                       "inline sysfs path literal outside src/kernel and "
                       "src/platform",
                       "use the interned node constants or the Sysfs seam");
        }
    }
}

/** Rule `cluster-literal`: a hard-coded per-core or per-cluster index in a
 * string literal — `cpu0`, `cpu4`, `policy0` — bakes the single-cluster
 * assumption into policy code. Cluster-relative paths are composed only by
 * src/kernel and src/platform; every other layer must address clusters
 * through ClusterTopology indices. */
void
CheckClusterLiterals(AnalyzedFile* file)
{
    const TranslationUnit& tu = file->tu;
    const std::string layer = LayerOf(tu.rel_path);
    if (layer.empty() || layer == "kernel" || layer == "platform") return;
    static const std::vector<std::string> kPrefixes = {"cpu", "policy"};
    for (const Token& t : tu.lexed.tokens) {
        if (t.kind != TokKind::kString) continue;
        const std::string& literal = t.text;
        bool hit = false;
        for (const std::string& prefix : kPrefixes) {
            size_t pos = 0;
            while (!hit &&
                   (pos = literal.find(prefix, pos)) != std::string::npos) {
                const size_t end = pos + prefix.size();
                // `cpu7`/`policy4` as a path component, not `cpuinfo...` or
                // `percpu` — the prefix must start a word and carry an index.
                const bool bounded_left =
                    pos == 0 || !IsIdentChar(literal[pos - 1]);
                const bool indexed =
                    end < literal.size() &&
                    std::isdigit(static_cast<unsigned char>(literal[end])) !=
                        0;
                hit = bounded_left && indexed;
                pos = end;
            }
            if (hit) break;
        }
        if (hit) {
            AddFinding(file, t.line, "cluster-literal",
                       "hard-coded cpu<N>/policy<N> index in a string "
                       "literal outside src/kernel and src/platform",
                       "address clusters through ClusterTopology and let "
                       "the kernel/platform seams compose per-cluster "
                       "paths");
        }
    }
}

/** Rule `unit-literal`: in the adopted layers, a non-zero numeric literal
 * must not be assigned or brace-fed into a khz/mbps/mw/ms-suffixed name —
 * it has to pass through KHz()/MBps()/Milliwatts()/Millis() (or SimTime's
 * named constructors) so the scale is part of the type. Zero is exempt:
 * it is the same quantity at every scale. */
void
CheckUnitLiterals(AnalyzedFile* file)
{
    const TranslationUnit& tu = file->tu;
    if (!UnitRuleApplies(LayerOf(tu.rel_path))) return;
    static const std::vector<std::string> kSuffixes = {"khz", "mbps", "mw",
                                                       "ms"};
    const std::vector<Token>& toks = tu.lexed.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent) continue;
        bool suffixed = false;
        for (const std::string& suffix : kSuffixes) {
            if (t.text == suffix ||
                (t.text.size() > suffix.size() + 1 &&
                 HasSuffix(t.text, suffix) &&
                 t.text[t.text.size() - suffix.size() - 1] == '_')) {
                suffixed = true;
                break;
            }
        }
        if (!suffixed) continue;
        const Token& op = toks[i + 1];
        if (!(IsPunct(op, "=") || IsPunct(op, "+=") || IsPunct(op, "-=") ||
              IsPunct(op, "{"))) {
            continue;
        }
        size_t j = i + 2;
        if (j < toks.size() &&
            (IsPunct(toks[j], "+") || IsPunct(toks[j], "-"))) {
            ++j;
        }
        if (j >= toks.size() || toks[j].kind != TokKind::kNumber) continue;
        std::string digits = toks[j].text;
        digits.erase(std::remove(digits.begin(), digits.end(), '\''),
                     digits.end());
        if (std::strtod(digits.c_str(), nullptr) == 0.0) continue;
        AddFinding(file, t.line, "unit-literal",
                   "raw numeric literal flows into `" + t.text + "`",
                   "wrap it in the tagged unit constructor "
                   "(KHz/MBps/Milliwatts/Millis) from common/units.h");
    }
}

/** The behavioural catalogue suite the monitor-catalogue rule checks
 * against: every runtime invariant monitor must be exercised here. */
constexpr const char kMonitorCataloguePath[] =
    "tests/chaos/invariant_monitor_test.cc";

/** Finds `class <Name> ... : public InvariantMonitor` declarations in
 * @p tu, as (name, line of the class keyword). */
std::vector<std::pair<std::string, int>>
FindMonitorSubclasses(const TranslationUnit& tu)
{
    std::vector<std::pair<std::string, int>> found;
    const std::vector<Token>& toks = tu.lexed.tokens;
    for (size_t i = 1; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::kIdent ||
            toks[i].text != "InvariantMonitor") {
            continue;
        }
        if (toks[i - 1].kind != TokKind::kIdent ||
            toks[i - 1].text != "public") {
            continue;
        }
        // Walk back to the class head; a brace or semicolon in between
        // means `public InvariantMonitor` was something else entirely.
        size_t head = std::string::npos;
        for (size_t j = i - 1; j-- > 0;) {
            if (IsPunct(toks[j], "{") || IsPunct(toks[j], "}") ||
                IsPunct(toks[j], ";")) {
                break;
            }
            if (toks[j].kind == TokKind::kIdent &&
                (toks[j].text == "class" || toks[j].text == "struct")) {
                head = j;
                break;
            }
        }
        if (head == std::string::npos || head + 1 >= toks.size()) continue;
        const Token& name = toks[head + 1];
        if (name.kind == TokKind::kIdent && name.text != "InvariantMonitor") {
            found.emplace_back(name.text, toks[head].line);
        }
    }
    return found;
}

/** Rule `monitor-catalogue`: every InvariantMonitor subclass declared under
 * src/ must appear — by identifier token, so never in a comment or string —
 * in the catalogue suite. */
void
CheckMonitorCatalogue(AnalyzedFile* file,
                      const std::set<std::string>& catalogue_idents)
{
    if (LayerOf(file->tu.rel_path).empty()) return;
    for (const auto& [name, line] : FindMonitorSubclasses(file->tu)) {
        if (catalogue_idents.count(name) > 0) continue;
        AddFinding(file, line, "monitor-catalogue",
                   "InvariantMonitor subclass `" + name +
                       "` is never exercised in " +
                       std::string(kMonitorCataloguePath),
                   "every runtime monitor needs a behavioural test in the "
                   "catalogue suite");
    }
}

/** Benches whose BENCH_*.json outputs are perf records — wall time,
 * events/sec, allocation counts — and therefore machine-dependent: there is
 * no meaningful byte-for-byte snapshot to gate them against. Everything
 * else writing a BENCH_*.json is presumed deterministic and must commit a
 * bench/snapshots/ counterpart. */
bool
IsPerfRecordBench(const std::string& rel_path)
{
    static const std::set<std::string> kAllowlist = {
        "bench/bench_batch_scaling.cc",
        "bench/bench_event_hotpath.cc",
    };
    return kAllowlist.count(rel_path) > 0;
}

/** Rule `bench-snapshot`: a bench naming a `BENCH_*.json` artifact (its
 * default snapshot path) must have the committed bench/snapshots/ copy the
 * CI determinism gate diffs against. */
void
CheckBenchSnapshots(const fs::path& root, AnalyzedFile* file)
{
    if (file->tu.rel_path.rfind("bench/", 0) != 0 ||
        IsPerfRecordBench(file->tu.rel_path)) {
        return;
    }
    for (const Token& t : file->tu.lexed.tokens) {
        if (t.kind != TokKind::kString) continue;
        const std::string& literal = t.text;
        if (literal.rfind("BENCH_", 0) != 0 || !HasSuffix(literal, ".json") ||
            literal.find('/') != std::string::npos) {
            continue;
        }
        if (!fs::exists(root / "bench" / "snapshots" / literal)) {
            AddFinding(file, t.line, "bench-snapshot",
                       "bench writes snapshot `" + literal +
                           "` but bench/snapshots/" + literal +
                           " is not committed",
                       "generate it (--fast, any --jobs) so CI's "
                       "byte-for-byte gate has a baseline, or allowlist the "
                       "bench as a perf record in aeo-lint");
        }
    }
}

/** One aeo_add_test() registration parsed out of tests/CMakeLists.txt. */
struct TestTarget {
    std::string name;
    int line = 0;
    std::vector<std::string> sources;
    std::vector<std::string> labels;
};

std::vector<TestTarget>
ParseTestRegistrations(const std::string& cmake_text)
{
    // Strip CMake comments, preserving line structure.
    std::string text;
    text.reserve(cmake_text.size());
    bool in_comment = false;
    for (const char c : cmake_text) {
        if (c == '\n') {
            in_comment = false;
            text += '\n';
        } else if (c == '#') {
            in_comment = true;
            text += ' ';
        } else {
            text += in_comment ? ' ' : c;
        }
    }

    std::vector<TestTarget> targets;
    static const std::string kCall = "aeo_add_test(";
    size_t pos = 0;
    while ((pos = text.find(kCall, pos)) != std::string::npos) {
        TestTarget target;
        target.line = 1 + static_cast<int>(std::count(
                              text.begin(),
                              text.begin() + static_cast<ptrdiff_t>(pos),
                              '\n'));
        const size_t open = pos + kCall.size();
        const size_t close = text.find(')', open);
        if (close == std::string::npos) break;
        std::istringstream args(text.substr(open, close - open));
        std::string token;
        enum class Section { kName, kSources, kLibs, kLabels };
        Section section = Section::kName;
        while (args >> token) {
            if (token == "LIBS") {
                section = Section::kLibs;
            } else if (token == "LABELS") {
                section = Section::kLabels;
            } else if (section == Section::kName) {
                target.name = token;
                section = Section::kSources;
            } else if (section == Section::kSources) {
                target.sources.push_back(token);
            } else if (section == Section::kLabels) {
                // Quoted multi-labels: "thermal;robustness".
                std::string cleaned;
                for (const char c : token) {
                    if (c != '"') cleaned += c;
                }
                size_t start = 0;
                while (start <= cleaned.size()) {
                    const size_t semi = cleaned.find(';', start);
                    const std::string label = cleaned.substr(
                        start, semi == std::string::npos ? std::string::npos
                                                         : semi - start);
                    if (!label.empty()) target.labels.push_back(label);
                    if (semi == std::string::npos) break;
                    start = semi + 1;
                }
            }
        }
        targets.push_back(std::move(target));
        pos = close;
    }
    return targets;
}

/** Rule `test-registration`: every *_test.cc under tests/ must be a source of
 * an aeo_add_test() call in tests/CMakeLists.txt, and every such call must
 * carry at least one ctest LABELS entry. */
void
CheckTestRegistration(const fs::path& root,
                      const std::vector<std::string>& test_files,
                      std::vector<Finding>* findings)
{
    if (test_files.empty()) return;
    const fs::path cmake_path = root / "tests" / "CMakeLists.txt";
    std::vector<TestTarget> targets;
    std::ifstream in(cmake_path);
    if (in) {
        std::stringstream buffer;
        buffer << in.rdbuf();
        targets = ParseTestRegistrations(buffer.str());
    }

    std::set<std::string> registered;  // paths relative to tests/
    for (const TestTarget& target : targets) {
        for (const std::string& source : target.sources) {
            registered.insert(source);
        }
        if (!target.sources.empty() && target.labels.empty()) {
            findings->push_back(Finding{
                "test-registration", "tests/CMakeLists.txt", target.line,
                "aeo_add_test(" + target.name + ") has no LABELS",
                "every suite needs at least one ctest label so CI can "
                "slice it"});
        }
    }
    for (const std::string& rel : test_files) {
        // rel is root-relative ("tests/core/foo_test.cc"); registrations
        // are tests/-relative.
        const std::string in_tests = rel.substr(std::string("tests/").size());
        if (registered.count(in_tests) == 0) {
            findings->push_back(Finding{
                "test-registration", rel, 1,
                "test file is not registered in tests/CMakeLists.txt via "
                "aeo_add_test(), so ctest never runs it",
                "add an aeo_add_test() call with at least one LABELS "
                "entry"});
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism rule family (token-level part).
// ---------------------------------------------------------------------------

/** Layers under src/ where raw wall clocks are allowed: the platform layer
 * owns the Clock seam, so a future RealClock backend lives there. */
bool
IsClockSeam(const std::string& rel_path)
{
    return LayerOf(rel_path) == "platform";
}

/** Rule `determinism` (per-file part): reproducibility bans in src/ and
 * bench/ — ambient entropy and wall clocks make snapshots flaky, so all
 * randomness flows through the seeded aeo::Rng and all time through the
 * aeo::platform Clock seam (DESIGN.md §16). */
void
CheckDeterminismTokens(AnalyzedFile* file)
{
    const TranslationUnit& tu = file->tu;
    const bool in_src = tu.rel_path.rfind("src/", 0) == 0;
    const bool in_bench = tu.rel_path.rfind("bench/", 0) == 0;
    if (!in_src && !in_bench) return;
    const std::vector<Token>& toks = tu.lexed.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent) continue;
        if (t.text == "random_device") {
            AddFinding(file, t.line, "determinism",
                       "std::random_device draws ambient entropy",
                       "seed a deterministic aeo::Rng (common/random.h) "
                       "from the experiment's root seed");
            continue;
        }
        if ((t.text == "system_clock" || t.text == "steady_clock" ||
             t.text == "high_resolution_clock") &&
            !IsClockSeam(tu.rel_path)) {
            AddFinding(file, t.line, "determinism",
                       "raw std::chrono clock outside the aeo::platform "
                       "Clock seam",
                       "simulated components read time through "
                       "platform::Clock; benches measure wall time through "
                       "bench::MonotonicSeconds()");
            continue;
        }
        // Call form: `name(` not preceded by member access, a qualifier
        // other than std::, a declaration's return type (`Clock& clock()`)
        // or another identifier (`int time(`). `return time(0)` still
        // counts — control keywords are not excluders.
        bool call_form = i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
        if (call_form && i > 0) {
            const Token& prev = toks[i - 1];
            if (IsPunct(prev, ".") || IsPunct(prev, "->") ||
                IsPunct(prev, "&") || IsPunct(prev, "*") ||
                IsPunct(prev, "&&")) {
                call_form = false;
            } else if (IsPunct(prev, "::")) {
                call_form = i >= 2 && toks[i - 2].kind == TokKind::kIdent &&
                            toks[i - 2].text == "std";
            } else if (prev.kind == TokKind::kIdent &&
                       !IsControlKeyword(prev.text)) {
                call_form = false;
            }
        }
        if (call_form && (t.text == "rand" || t.text == "srand")) {
            AddFinding(file, t.line, "determinism",
                       "libc rand()/srand() is hidden global state",
                       "use the explicitly seeded aeo::Rng instead");
            continue;
        }
        if (call_form && (t.text == "time" || t.text == "clock")) {
            AddFinding(file, t.line, "determinism",
                       "libc time()/clock() reads the wall clock",
                       "simulated time comes from platform::Clock; bench "
                       "wall time from bench::MonotonicSeconds()");
            continue;
        }
        // Pointer hashing: hash<T*> feeds address-dependent (run-to-run
        // unstable) values into whatever consumes it.
        if (t.text == "hash" && i + 1 < toks.size() &&
            IsPunct(toks[i + 1], "<")) {
            int depth = 0;
            for (size_t j = i + 1; j < toks.size() && j < i + 64; ++j) {
                if (IsPunct(toks[j], "<")) ++depth;
                if (IsPunct(toks[j], ">")) {
                    if (--depth == 0) break;
                }
                if (IsPunct(toks[j], ">>")) {
                    depth -= 2;
                    if (depth <= 0) break;
                }
                if (IsPunct(toks[j], "*")) {
                    AddFinding(file, t.line, "determinism",
                               "hashing a pointer produces run-to-run "
                               "unstable values",
                               "hash a stable id (name, index, interned "
                               "handle) instead of an address");
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Call graph (shared by the determinism sink analysis and the hot-path
// allocation analysis).
// ---------------------------------------------------------------------------

/** A function reference into the analyzed set. */
struct FnRef {
    size_t file = 0;  // index into the AnalyzedFile vector
    size_t fn = 0;    // index into that file's tu.functions
};

struct CallGraph {
    /** Unqualified name -> definitions. */
    std::map<std::string, std::vector<FnRef>> by_name;
    /** (class, name) -> definitions. */
    std::map<std::pair<std::string, std::string>, std::vector<FnRef>>
        by_qualified;
    /** Class -> its direct bases, merged over every file. */
    std::map<std::string, std::vector<std::string>> bases;
};

const FunctionDef&
Deref(const std::vector<AnalyzedFile>& files, const FnRef& ref)
{
    return files[ref.file].tu.functions[ref.fn];
}

/** True for files whose functions join the call graph: the product tree,
 * the tools and the benches — not tests (a test helper sharing a product
 * function's name must not poison product reachability). */
bool
InCallGraph(const std::string& rel_path)
{
    return rel_path.rfind("src/", 0) == 0 ||
           rel_path.rfind("tools/", 0) == 0 ||
           rel_path.rfind("bench/", 0) == 0;
}

CallGraph
BuildCallGraph(const std::vector<AnalyzedFile>& files)
{
    CallGraph graph;
    for (size_t f = 0; f < files.size(); ++f) {
        if (!InCallGraph(files[f].tu.rel_path)) continue;
        const std::vector<FunctionDef>& fns = files[f].tu.functions;
        for (size_t k = 0; k < fns.size(); ++k) {
            graph.by_name[fns[k].name].push_back(FnRef{f, k});
            if (!fns[k].class_name.empty()) {
                graph.by_qualified[{fns[k].class_name, fns[k].name}]
                    .push_back(FnRef{f, k});
            }
        }
        for (const auto& [cls, bases] : files[f].tu.class_bases) {
            std::vector<std::string>& known = graph.bases[cls];
            known.insert(known.end(), bases.begin(), bases.end());
        }
    }
    return graph;
}

/** The nearest definition of @p name in @p cls's bases, searched
 * breadth-first and transitively; empty when no base defines it. */
std::vector<FnRef>
ResolveInBases(const CallGraph& graph, const std::string& cls,
               const std::string& name)
{
    std::set<std::string> seen = {cls};
    std::deque<std::string> queue = {cls};
    while (!queue.empty()) {
        const auto bases = graph.bases.find(queue.front());
        queue.pop_front();
        if (bases == graph.bases.end()) continue;
        for (const std::string& base : bases->second) {
            if (!seen.insert(base).second) continue;
            const auto it = graph.by_qualified.find({base, name});
            if (it != graph.by_qualified.end()) return it->second;
            queue.push_back(base);
        }
    }
    return {};
}

/** Resolves a call site to candidate definitions. Resolution is scoped:
 *
 *  - a qualifier (explicit `X::f` or a typed receiver) binds to X's `f`
 *    when X defines one, falling back to free functions sharing the name
 *    (namespace-qualified calls); a qualified call that resolves to
 *    neither is external — it never merges into unrelated classes;
 *  - an unqualified member call binds to the caller's own class first,
 *    then merges across all *methods* sharing the name;
 *  - a plain call binds to the caller's class first, then to the nearest
 *    of its bases (transitively) that defines the name, then merges
 *    across free functions sharing the name.
 *
 * Returns an empty list for external functions. */
std::vector<FnRef>
Resolve(const std::vector<AnalyzedFile>& files, const CallGraph& graph,
        const CallSite& call, const FunctionDef& caller)
{
    auto name_matches = [&](bool methods, bool free_fns) {
        std::vector<FnRef> out;
        const auto it = graph.by_name.find(call.name);
        if (it == graph.by_name.end()) return out;
        for (const FnRef& ref : it->second) {
            const bool is_method = !Deref(files, ref).class_name.empty();
            if ((is_method && methods) || (!is_method && free_fns)) {
                out.push_back(ref);
            }
        }
        return out;
    };
    // Constructor calls: `Milliwatts(x)` resolves to Milliwatts's ctor.
    {
        const auto it = graph.by_qualified.find({call.name, call.name});
        if (it != graph.by_qualified.end()) return it->second;
    }
    if (!call.qualifier.empty()) {
        const auto it = graph.by_qualified.find({call.qualifier, call.name});
        if (it != graph.by_qualified.end()) return it->second;
    } else if (!caller.class_name.empty()) {
        const auto it =
            graph.by_qualified.find({caller.class_name, call.name});
        if (it != graph.by_qualified.end()) return it->second;
        if (!call.member_access) {
            // A plain call inside a method may name an inherited member.
            std::vector<FnRef> inherited =
                ResolveInBases(graph, caller.class_name, call.name);
            if (!inherited.empty()) return inherited;
        }
    }
    // Fallback merge. A member call (`obj.f()`, or a typed receiver whose
    // class lacks a body for f — virtual dispatch through an interface)
    // merges across every *method* named f; a plain call merges across
    // free functions only. Neither crosses into the other shape.
    return name_matches(/*methods=*/call.member_access,
                        /*free_fns=*/!call.member_access);
}

/** BFS over the call graph from @p roots; returns fn -> root-description
 * for every reached function (including the roots themselves). Traversal
 * stops at hot-path-stop barriers. */
std::map<std::pair<size_t, size_t>, std::string>
Reachable(const std::vector<AnalyzedFile>& files, const CallGraph& graph,
          const std::vector<FnRef>& roots)
{
    std::map<std::pair<size_t, size_t>, std::string> reached;
    std::deque<FnRef> queue;
    for (const FnRef& root : roots) {
        const FunctionDef& fn = Deref(files, root);
        const std::string label = fn.class_name.empty()
                                      ? fn.name
                                      : fn.class_name + "::" + fn.name;
        if (reached.emplace(std::make_pair(root.file, root.fn), label)
                .second) {
            queue.push_back(root);
        }
    }
    while (!queue.empty()) {
        const FnRef cur = queue.front();
        queue.pop_front();
        const FunctionDef& fn = Deref(files, cur);
        const std::string& root_label =
            reached.at(std::make_pair(cur.file, cur.fn));
        for (const CallSite& call : fn.calls) {
            for (const FnRef& target : Resolve(files, graph, call, fn)) {
                const FunctionDef& callee = Deref(files, target);
                if (callee.hot_path_stop) continue;
                if (reached
                        .emplace(std::make_pair(target.file, target.fn),
                                 root_label)
                        .second) {
                    queue.push_back(target);
                }
            }
        }
    }
    return reached;
}

// ---------------------------------------------------------------------------
// Determinism rule family (sink-reachability part).
// ---------------------------------------------------------------------------

/** Serialization/snapshot sinks: functions that produce the deterministic
 * artifacts (CSV rows, JSON snapshots) CI gates byte-for-byte. */
bool
IsSerializationSink(const FunctionDef& fn)
{
    static const std::set<std::string> kNames = {
        "WriteCsv", "WriteJson", "Serialize", "WriteSnapshotFile"};
    return kNames.count(fn.name) > 0 || HasSuffix(fn.name, "ToJson");
}

/** Finds range-for statements over unordered containers inside the body of
 * @p fn, reporting at the `for` keyword's line. */
void
CheckUnorderedIteration(const std::vector<AnalyzedFile>& files,
                        const FnRef& ref, const std::string& root_label,
                        const std::set<std::string>& unordered_vars,
                        std::vector<Finding>* findings)
{
    const AnalyzedFile& file = files[ref.file];
    const FunctionDef& fn = file.tu.functions[ref.fn];
    const std::vector<Token>& toks = file.tu.lexed.tokens;
    for (size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
        if (toks[i].kind != TokKind::kIdent || toks[i].text != "for") {
            continue;
        }
        if (!IsPunct(toks[i + 1], "(")) continue;
        // Find the matching close and the top-level `:` of a range-for.
        int depth = 0;
        size_t close = std::string::npos;
        size_t colon = std::string::npos;
        for (size_t j = i + 1; j < fn.body_end; ++j) {
            if (IsPunct(toks[j], "(")) ++depth;
            if (IsPunct(toks[j], ")")) {
                if (--depth == 0) {
                    close = j;
                    break;
                }
            }
            if (depth == 1 && IsPunct(toks[j], ":")) colon = j;
            if (depth == 1 && IsPunct(toks[j], ";")) break;  // classic for
        }
        if (close == std::string::npos || colon == std::string::npos) {
            continue;
        }
        // The range expression's last identifier names the container.
        std::string range_var;
        for (size_t j = colon + 1; j < close; ++j) {
            if (toks[j].kind == TokKind::kIdent &&
                !IsControlKeyword(toks[j].text)) {
                range_var = toks[j].text;
            }
        }
        if (range_var.empty() || unordered_vars.count(range_var) == 0) {
            continue;
        }
        findings->push_back(Finding{
            "determinism", file.tu.rel_path, toks[i].line,
            "iteration over unordered container `" + range_var +
                "` in a function reachable from serialization sink `" +
                root_label + "`",
            "unordered iteration order is run-to-run unstable; sort keys "
            "first or use an ordered container on the output path"});
    }
}

// ---------------------------------------------------------------------------
// Hot-path allocation rule family.
// ---------------------------------------------------------------------------

/** External functions (no definition in the tree) that hot paths may call:
 * allocation-free std utilities, atomics and container accessors. Growth
 * methods (push_back & co) are deliberately absent — they are judged by
 * the receiver check instead. */
bool
IsAllocFreeExternal(const std::string& name)
{
    static const std::set<std::string> kAllowlist = {
        // <algorithm>/<cmath>/<utility> value helpers.
        "min", "max", "abs", "fabs", "clamp", "floor", "ceil", "round",
        "lround", "llround", "sqrt", "pow", "exp", "exp2", "log", "log2",
        "log10", "isnan", "isinf", "isfinite", "fmod", "fma", "trunc", "hypot",
        "move", "swap", "forward", "get", "tie", "exchange", "distance",
        "lower_bound", "upper_bound", "sort", "nth_element", "fill",
        "copy", "count_if", "any_of", "all_of", "none_of", "accumulate",
        // Container/string accessors that never grow their receiver.
        "size", "empty", "data", "begin", "end", "cbegin", "cend", "rbegin",
        "rend", "front", "back", "top", "at", "count", "find", "contains",
        "c_str", "length", "capacity", "first", "second", "clear", "pop",
        "pop_back", "pop_front", "erase",
        // optional/variant/smart-pointer accessors.
        "value", "has_value", "value_or", "reset", "release", "operator",
        // Atomics.
        "load", "store", "fetch_add", "fetch_sub", "exchange_weak",
        "compare_exchange_weak", "compare_exchange_strong",
        // C library, allocation-free.
        "memcpy", "memset", "memmove", "strlen", "strcmp", "strncmp",
        "isspace", "isdigit", "isalpha", "isalnum", "tolower", "toupper",
        "va_start", "va_end", "va_copy", "vsnprintf", "snprintf",
        // <cmath>/<cstdlib> numeric parsing and trig.
        "sin", "cos", "tan", "atan2", "strtod", "strtoll", "strtoull",
        // numeric_limits constants.
        "infinity", "quiet_NaN", "lowest", "epsilon",
        // string_view construction and slicing never allocate; ambiguous
        // `substr` is dominated by string_view use in this codebase.
        "string_view", "substr",
        // AEO_ASSERT/AEO_PANIC only format on their failure paths, which
        // abort.
        "AEO_ASSERT", "AEO_PANIC",
        // Strong unit value types (common/units.h, sim/time.h): each wraps
        // a double (or integer tick count) with inherited constructors the
        // indexer cannot see; constructing one never allocates.
        "Gigahertz", "Kilohertz", "MegabytesPerSecond", "Volts",
        "Milliwatts", "Joules", "Gips", "Seconds", "Milliseconds",
        "SimTime",
        // EventCallback's bound-function template parameter invocation.
        "Fn", "fn",
    };
    return kAllowlist.count(name) > 0;
}

/** Methods that may grow a std container or string. */
bool
IsGrowthMethod(const std::string& name)
{
    static const std::set<std::string> kGrowth = {
        "push_back",     "emplace_back",  "push_front", "emplace_front",
        "append",        "resize",        "reserve",    "insert",
        "emplace",       "emplace_hint",  "assign",     "push",
    };
    return kGrowth.count(name) > 0;
}

/** Scans one reachable function for allocation constructs. */
void
CheckHotFunction(const std::vector<AnalyzedFile>& files,
                 const CallGraph& graph, const FnRef& ref,
                 const std::string& root_label,
                 const std::set<std::string>& growable_vars,
                 std::vector<Finding>* findings)
{
    const AnalyzedFile& file = files[ref.file];
    const FunctionDef& fn = file.tu.functions[ref.fn];
    const std::vector<Token>& toks = file.tu.lexed.tokens;
    const std::string where =
        (fn.class_name.empty() ? fn.name
                               : fn.class_name + "::" + fn.name) +
        " (reachable from hot-path entry `" + root_label + "`)";

    for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent) continue;
        if (t.text == "new") {
            // Placement new constructs in existing storage; `operator new`
            // declarations are not expressions.
            const bool placement =
                i + 1 < fn.body_end && IsPunct(toks[i + 1], "(");
            const bool operator_decl =
                i > 0 && toks[i - 1].kind == TokKind::kIdent &&
                toks[i - 1].text == "operator";
            if (!placement && !operator_decl) {
                findings->push_back(Finding{
                    "hot-path-alloc", file.tu.rel_path, t.line,
                    "`new` in " + where,
                    "hot paths must not heap-allocate; use inline/slab "
                    "storage (StaticVector, EventQueue slab, "
                    "EventCallback)"});
            }
            continue;
        }
        if ((t.text == "make_unique" || t.text == "make_shared") &&
            i + 1 < fn.body_end &&
            (IsPunct(toks[i + 1], "(") || IsPunct(toks[i + 1], "<"))) {
            findings->push_back(Finding{
                "hot-path-alloc", file.tu.rel_path, t.line,
                "`std::" + t.text + "` in " + where,
                "hot paths must not heap-allocate; hoist the allocation "
                "out of the per-cycle path"});
            continue;
        }
        if (t.text == "function" && i >= 2 && IsPunct(toks[i - 1], "::") &&
            toks[i - 2].kind == TokKind::kIdent &&
            toks[i - 2].text == "std") {
            findings->push_back(Finding{
                "hot-path-alloc", file.tu.rel_path, t.line,
                "std::function in " + where,
                "std::function may allocate for captures; use the "
                "fixed-capacity EventCallback or a template parameter"});
            continue;
        }
        // Growth calls on known std containers: `recv.push_back(...)`.
        if (i + 1 < fn.body_end && IsPunct(toks[i + 1], "(") && i >= 2 &&
            (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")) &&
            IsGrowthMethod(t.text) &&
            toks[i - 2].kind == TokKind::kIdent &&
            growable_vars.count(toks[i - 2].text) > 0) {
            findings->push_back(Finding{
                "hot-path-alloc", file.tu.rel_path, t.line,
                "`" + toks[i - 2].text + "." + t.text + "()` may grow a "
                "std container in " + where,
                "growth can reallocate; reserve out of the hot path or use "
                "fixed-capacity storage"});
            continue;
        }
        // Copy-assignment into a member whose name this file declares with
        // a std container or string type (same-file scope, as for `+=`):
        // `recv.member = expr` copies the source's elements and may allocate
        // (a std::string past its small-string buffer always does). A move
        // hands the buffer over instead.
        if (i + 2 < fn.body_end && IsPunct(toks[i + 1], "=") &&
            (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")) &&
            file.tu.growable_vars.count(t.text) > 0 &&
            !(toks[i + 2].kind == TokKind::kIdent &&
              (toks[i + 2].text == "std" || toks[i + 2].text == "move"))) {
            findings->push_back(Finding{
                "hot-path-alloc", file.tu.rel_path, t.line,
                "`" + t.text + " = ...` copies into a std container or "
                "string in " + where,
                "copying a string or container can allocate; store an id or "
                "index into storage built outside the hot path"});
            continue;
        }
        // String growth via `+=` on a receiver declared growable in this
        // file (same-file scope keeps common names from cross-matching).
        if (i + 1 < fn.body_end && IsPunct(toks[i + 1], "+=") &&
            file.tu.growable_vars.count(t.text) > 0) {
            findings->push_back(Finding{
                "hot-path-alloc", file.tu.rel_path, t.line,
                "`" + t.text + " += ...` may grow a std container in " +
                    where,
                "growth can reallocate; build output outside the hot path"});
            continue;
        }
    }

    // External calls: a call that resolves to nothing in the tree must be
    // on the alloc-free allowlist.
    for (const CallSite& call : fn.calls) {
        if (!Resolve(files, graph, call, fn).empty()) continue;
        if (IsAllocFreeExternal(call.name)) continue;
        if (call.name == "make_unique" || call.name == "make_shared") {
            continue;  // already reported above
        }
        // Growth methods are judged by the receiver check above, local
        // lambdas are scanned inline where they are defined, and invoking
        // a stored member callable (`hook_()`) does not allocate.
        if (IsGrowthMethod(call.name) ||
            file.tu.local_callables.count(call.name) > 0 ||
            (!call.name.empty() && call.name.back() == '_')) {
            continue;
        }
        findings->push_back(Finding{
            "hot-path-alloc", file.tu.rel_path, call.line,
            "call to unanalyzed external function `" + call.name + "` in " +
                where,
            "add it to the aeo-lint alloc-free allowlist if it cannot "
            "allocate, or restructure the hot path"});
    }
}

// ---------------------------------------------------------------------------
// Suppression filtering.
// ---------------------------------------------------------------------------

/** Applies `allow(<rule>)` suppressions: a finding is dropped when a
 * matching allow sits on its line or up to two lines above. Returns the
 * surviving findings and marks used allows in @p used (parallel to each
 * file's allows vector). */
std::vector<Finding>
FilterSuppressed(const std::vector<AnalyzedFile>& files,
                 const std::map<std::string, size_t>& file_index,
                 std::vector<Finding> findings,
                 std::vector<std::vector<bool>>* used)
{
    std::vector<Finding> kept;
    kept.reserve(findings.size());
    for (Finding& finding : findings) {
        // Malformed-control-comment findings are never suppressible: a
        // broken comment must not silence itself.
        bool suppressed = false;
        if (finding.rule != "suppression") {
            const auto it = file_index.find(finding.file);
            if (it != file_index.end()) {
                const std::vector<AllowComment>& allows =
                    files[it->second].tu.lexed.allows;
                for (size_t a = 0; a < allows.size(); ++a) {
                    if (allows[a].rule != finding.rule) continue;
                    if (allows[a].line <= finding.line &&
                        finding.line - allows[a].line <= 2) {
                        suppressed = true;
                        (*used)[it->second][a] = true;
                        break;
                    }
                }
            }
        }
        if (!suppressed) kept.push_back(std::move(finding));
    }
    return kept;
}

/** Collects root-relative paths ('/'-separated) of sources under @p subdir,
 * skipping lint-fixture trees (they seed violations on purpose). */
std::vector<std::string>
CollectSources(const fs::path& root, const std::string& subdir)
{
    std::vector<std::string> files;
    const fs::path base = root / subdir;
    if (!fs::exists(base)) return files;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
        std::string rel =
            fs::relative(entry.path(), root).generic_string();
        if (rel.find("/fixtures/") != std::string::npos) continue;
        files.push_back(std::move(rel));
    }
    std::sort(files.begin(), files.end());
    return files;
}

AnalyzedFile
AnalyzeFile(const fs::path& root, const std::string& rel)
{
    AnalyzedFile file;
    std::ifstream in(root / fs::path(rel));
    std::stringstream buffer;
    buffer << in.rdbuf();
    file.tu = BuildTranslationUnit(rel, Lex(buffer.str()));

    CheckSuppressions(&file);
    CheckLayering(&file);
    CheckTimeSeam(&file);
    CheckSysfsLiterals(&file);
    CheckClusterLiterals(&file);
    CheckUnitLiterals(&file);
    CheckDeterminismTokens(&file);
    CheckBenchSnapshots(root, &file);
    return file;
}

}  // namespace

std::vector<Finding>
RunLint(const LintOptions& options, LintStats* stats)
{
    const fs::path root(options.root);

    std::vector<std::string> paths;
    for (const char* subdir : {"src", "tests", "bench", "tools"}) {
        for (std::string& rel : CollectSources(root, subdir)) {
            paths.push_back(std::move(rel));
        }
    }

    // Stage 1+2 and the per-file rules are embarrassingly parallel; the
    // batch layer's RunIndexed fans them out. Results land in path order,
    // so the output is deterministic at any worker count.
    std::vector<AnalyzedFile> files =
        BatchRunner(BatchOptions{options.jobs})
            .RunIndexed<AnalyzedFile>(paths.size(), [&root, &paths](size_t i) {
                return AnalyzeFile(root, paths[i]);
            });

    std::map<std::string, size_t> file_index;
    for (size_t i = 0; i < files.size(); ++i) {
        file_index[files[i].tu.rel_path] = i;
    }

    std::vector<Finding> findings;
    for (AnalyzedFile& file : files) {
        for (Finding& finding : file.findings) {
            findings.push_back(std::move(finding));
        }
        file.findings.clear();
    }

    // Monitor catalogue: identifier tokens of the catalogue suite.
    std::set<std::string> catalogue_idents;
    if (const auto it = file_index.find(kMonitorCataloguePath);
        it != file_index.end()) {
        for (const Token& t : files[it->second].tu.lexed.tokens) {
            if (t.kind == TokKind::kIdent) catalogue_idents.insert(t.text);
        }
    }
    for (AnalyzedFile& file : files) {
        CheckMonitorCatalogue(&file, catalogue_idents);
        for (Finding& finding : file.findings) {
            findings.push_back(std::move(finding));
        }
        file.findings.clear();
    }

    // Test registration.
    std::vector<std::string> test_files;
    for (const AnalyzedFile& file : files) {
        if (file.tu.rel_path.rfind("tests/", 0) == 0 &&
            HasSuffix(file.tu.rel_path, "_test.cc")) {
            test_files.push_back(file.tu.rel_path);
        }
    }
    CheckTestRegistration(root, test_files, &findings);

    // Global semantic passes over the call graph.
    const CallGraph graph = BuildCallGraph(files);

    // Determinism: unordered iteration reachable from serialization sinks.
    std::set<std::string> unordered_vars;
    for (const AnalyzedFile& file : files) {
        if (!InCallGraph(file.tu.rel_path)) continue;
        unordered_vars.insert(file.tu.unordered_vars.begin(),
                              file.tu.unordered_vars.end());
    }
    std::vector<FnRef> sink_roots;
    for (size_t f = 0; f < files.size(); ++f) {
        if (!InCallGraph(files[f].tu.rel_path)) continue;
        for (size_t k = 0; k < files[f].tu.functions.size(); ++k) {
            if (IsSerializationSink(files[f].tu.functions[k])) {
                sink_roots.push_back(FnRef{f, k});
            }
        }
    }
    for (const auto& [key, root_label] : Reachable(files, graph, sink_roots)) {
        CheckUnorderedIteration(files, FnRef{key.first, key.second},
                                root_label, unordered_vars, &findings);
    }

    // Hot-path allocation analysis. Annotations are honored under src/
    // only: the product's per-cycle entry points, not tests or harnesses.
    std::set<std::string> growable_vars;
    for (const AnalyzedFile& file : files) {
        if (!InCallGraph(file.tu.rel_path)) continue;
        growable_vars.insert(file.tu.growable_vars.begin(),
                             file.tu.growable_vars.end());
    }
    std::vector<FnRef> hot_roots;
    for (size_t f = 0; f < files.size(); ++f) {
        const AnalyzedFile& file = files[f];
        if (LayerOf(file.tu.rel_path).empty()) continue;
        for (size_t k = 0; k < file.tu.functions.size(); ++k) {
            if (file.tu.functions[k].hot_path) {
                hot_roots.push_back(FnRef{f, k});
            }
        }
        for (const int line : file.tu.dangling_hot_annotations) {
            findings.push_back(Finding{
                "hot-path-alloc", file.tu.rel_path, line,
                "hot-path annotation attaches to no function definition",
                "place the annotation directly above the function it "
                "protects (within six lines)"});
        }
    }
    for (const auto& [key, root_label] : Reachable(files, graph, hot_roots)) {
        CheckHotFunction(files, graph, FnRef{key.first, key.second},
                         root_label, growable_vars, &findings);
    }

    // Suppression filtering, then stale-suppression over unused allows.
    std::vector<std::vector<bool>> used(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
        used[i].assign(files[i].tu.lexed.allows.size(), false);
    }
    findings =
        FilterSuppressed(files, file_index, std::move(findings), &used);
    std::vector<Finding> stale;
    for (size_t i = 0; i < files.size(); ++i) {
        const std::vector<AllowComment>& allows = files[i].tu.lexed.allows;
        for (size_t a = 0; a < allows.size(); ++a) {
            if (used[i][a]) continue;
            stale.push_back(Finding{
                "stale-suppression", files[i].tu.rel_path, allows[a].line,
                "allow(" + allows[a].rule +
                    ") suppresses nothing: the rule no longer fires within "
                    "its three-line window",
                "delete the stale allow so it cannot rot into a blanket "
                "permission"});
        }
    }
    // Stale findings are themselves suppressible (allow(stale-suppression)
    // for the rare deliberate case).
    stale = FilterSuppressed(files, file_index, std::move(stale), &used);
    for (Finding& finding : stale) {
        findings.push_back(std::move(finding));
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    findings.erase(std::unique(findings.begin(), findings.end(),
                               [](const Finding& a, const Finding& b) {
                                   return a.file == b.file &&
                                          a.line == b.line &&
                                          a.rule == b.rule &&
                                          a.message == b.message;
                               }),
                   findings.end());

    if (stats != nullptr) {
        stats->files_analyzed = files.size();
        stats->functions_indexed = 0;
        for (const AnalyzedFile& file : files) {
            stats->functions_indexed += file.tu.functions.size();
        }
        stats->findings = findings.size();
    }
    return findings;
}

std::string
FormatFindings(const std::vector<Finding>& findings)
{
    std::string out;
    for (const Finding& finding : findings) {
        out += finding.file + ":" + std::to_string(finding.line) + ": [" +
               finding.rule + "] " + finding.message;
        if (!finding.fix_hint.empty()) {
            out += "; " + finding.fix_hint;
        }
        out += "\n";
    }
    return out;
}

std::string
FormatFindingsJson(const std::vector<Finding>& findings)
{
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", 1);
    doc.Set("tool", "aeo-lint");
    JsonValue list = JsonValue::MakeArray();
    for (const Finding& finding : findings) {
        JsonValue f = JsonValue::MakeObject();
        f.Set("rule", finding.rule);
        f.Set("file", finding.file);
        f.Set("line", finding.line);
        f.Set("message", finding.message);
        f.Set("fix_hint", finding.fix_hint);
        list.Append(std::move(f));
    }
    doc.Set("findings", std::move(list));
    return doc.Dump(2) + "\n";
}

std::string
FormatGitHubAnnotations(const std::vector<Finding>& findings)
{
    // https://docs.github.com/actions: workflow commands. Message text must
    // keep to one line; %, \r, \n are escaped per the command protocol.
    auto escape = [](const std::string& text) {
        std::string out;
        for (const char c : text) {
            if (c == '%') {
                out += "%25";
            } else if (c == '\r') {
                out += "%0D";
            } else if (c == '\n') {
                out += "%0A";
            } else {
                out += c;
            }
        }
        return out;
    };
    std::string out;
    for (const Finding& finding : findings) {
        std::string message = finding.message;
        if (!finding.fix_hint.empty()) {
            message += "; " + finding.fix_hint;
        }
        out += "::error file=" + escape(finding.file) +
               ",line=" + std::to_string(finding.line) +
               ",title=aeo-lint " + escape(finding.rule) +
               "::" + escape(message) + "\n";
    }
    return out;
}

}  // namespace aeo::lint
