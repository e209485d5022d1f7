/**
 * @file
 * Golden-fixture suite for the aeo-lint static-analysis pass: each fixture
 * under tests/tools/fixtures is a miniature repo tree seeding exactly one
 * kind of violation, and the tests pin the rule AND the file:line it is
 * reported at. The final test lints the real repo, making `ctest -L tooling`
 * a local equivalent of the blocking CI lint job.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace aeo::lint {
namespace {

std::vector<Finding>
LintFixture(const std::string& name)
{
    return RunLint({.root = std::string(AEO_LINT_FIXTURES) + "/" + name});
}

bool
HasFinding(const std::vector<Finding>& findings, const std::string& rule,
           const std::string& file, int line)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding& f) {
                           return f.rule == rule && f.file == file &&
                                  f.line == line;
                       });
}

std::string
Dump(const std::vector<Finding>& findings)
{
    return FormatFindings(findings);
}

TEST(AeoLintTest, CleanFixtureHasNoFindings)
{
    const std::vector<Finding> findings = LintFixture("clean");
    EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(AeoLintTest, LayeringBreaksAreReportedAtTheIncludeLine)
{
    const std::vector<Finding> findings = LintFixture("layering_break");
    // soc reaching up into core.
    EXPECT_TRUE(
        HasFinding(findings, "layering", "src/soc/uses_core.cc", 2))
        << Dump(findings);
    // core reaching down into kernel.
    EXPECT_TRUE(
        HasFinding(findings, "layering", "src/core/includes_kernel.cc", 2))
        << Dump(findings);
    // core reaching UP into chaos: the product must not include its chaos
    // harness.
    EXPECT_TRUE(
        HasFinding(findings, "layering", "src/core/includes_chaos.cc", 2))
        << Dump(findings);
    // core reaching into the reference LP solvers: the product has one
    // optimizer, so src/lp is for tests and benches only.
    EXPECT_TRUE(
        HasFinding(findings, "layering", "src/core/includes_lp.cc", 2))
        << Dump(findings);
    // core naming Device outside the harness seam (both mentions).
    EXPECT_TRUE(
        HasFinding(findings, "layering", "src/core/names_device.cc", 3))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "layering", "src/core/names_device.cc", 4))
        << Dump(findings);
    EXPECT_EQ(findings.size(), 6u) << Dump(findings);
}

TEST(AeoLintTest, RawSimulatorTimeInPolicyLayersIsReported)
{
    const std::vector<Finding> findings = LintFixture("time_seam");
    // core naming the raw machinery: the type, the task, the clock call.
    EXPECT_TRUE(
        HasFinding(findings, "time-seam", "src/core/raw_time.cc", 3))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "time-seam", "src/core/raw_time.cc", 4))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "time-seam", "src/core/raw_time.cc", 5))
        << Dump(findings);
    // control is a policy layer too...
    EXPECT_TRUE(
        HasFinding(findings, "time-seam", "src/control/raw_time.cc", 3))
        << Dump(findings);
    // ...while src/platform IS the seam: its Simulator use is clean.
    EXPECT_EQ(findings.size(), 4u) << Dump(findings);
}

TEST(AeoLintTest, InlineSysfsLiteralIsReported)
{
    const std::vector<Finding> findings = LintFixture("sysfs_literal");
    ASSERT_EQ(findings.size(), 1u) << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "sysfs-literal", "src/apps/bad.cc", 4))
        << Dump(findings);
}

TEST(AeoLintTest, HardCodedClusterIndexLiteralIsReported)
{
    const std::vector<Finding> findings = LintFixture("cluster_literal");
    // bad.cc hard-codes a core index (cpu0) and a cpufreq domain (policy4)
    // outside the kernel/platform seams; `cpuinfo_max_freq` is not an
    // indexed reference and src/kernel composes per-cluster paths by
    // design, so neither is a finding.
    ASSERT_EQ(findings.size(), 2u) << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "cluster-literal", "src/apps/bad.cc", 4))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "cluster-literal", "src/apps/bad.cc", 6))
        << Dump(findings);
}

TEST(AeoLintTest, UnlabeledAndUnregisteredTestsAreReported)
{
    const std::vector<Finding> findings = LintFixture("unlabeled_test");
    // widget_test is registered but carries no ctest label: reported at the
    // aeo_add_test() call site.
    EXPECT_TRUE(HasFinding(findings, "test-registration",
                           "tests/CMakeLists.txt", 1))
        << Dump(findings);
    // orphan_test.cc never appears in tests/CMakeLists.txt.
    EXPECT_TRUE(HasFinding(findings, "test-registration",
                           "tests/orphan_test.cc", 1))
        << Dump(findings);
    EXPECT_EQ(findings.size(), 2u) << Dump(findings);
}

TEST(AeoLintTest, RawUnitLiteralIsReportedButZeroIsExempt)
{
    const std::vector<Finding> findings = LintFixture("unit_literal");
    // Line 3 initializes compute_power_mw to 0.0 — scale-free, exempt.
    // Line 8 assigns the raw 25.0 — must go through Milliwatts().
    ASSERT_EQ(findings.size(), 1u) << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "unit-literal", "src/core/bad.cc", 8))
        << Dump(findings);
}

TEST(AeoLintTest, JustifiedAllowSuppressesAndBareAllowIsAFinding)
{
    const std::vector<Finding> findings = LintFixture("suppressed");
    // allowed.cc: the justified allow swallows the sysfs finding entirely.
    for (const Finding& finding : findings) {
        EXPECT_NE(finding.file, "src/apps/allowed.cc") << Dump(findings);
    }
    // bad_allow.cc: the justification-free allow is itself a finding AND
    // does not suppress the violation it sits on.
    EXPECT_TRUE(
        HasFinding(findings, "suppression", "src/apps/bad_allow.cc", 4))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "sysfs-literal", "src/apps/bad_allow.cc", 5))
        << Dump(findings);
    EXPECT_EQ(findings.size(), 2u) << Dump(findings);
}

TEST(AeoLintTest, UntestedInvariantMonitorSubclassIsReported)
{
    const std::vector<Finding> findings = LintFixture("monitor_catalogue");
    // TestedMonitor is named in the catalogue suite's code; UntestedMonitor
    // only in a comment there, which is stripped before matching. The base
    // class declaration itself is not a finding.
    ASSERT_EQ(findings.size(), 1u) << Dump(findings);
    EXPECT_TRUE(HasFinding(findings, "monitor-catalogue",
                           "src/chaos/monitors.h", 9))
        << Dump(findings);
}

TEST(AeoLintTest, BenchWithoutCommittedSnapshotIsReported)
{
    const std::vector<Finding> findings = LintFixture("bench_snapshot");
    // missing_snapshot_bench.cc names BENCH_missing.json with no committed
    // bench/snapshots/ baseline: reported at the literal. gated_bench.cc
    // has its baseline committed and bench_batch_scaling.cc is an
    // allowlisted perf record — both clean.
    ASSERT_EQ(findings.size(), 1u) << Dump(findings);
    EXPECT_TRUE(HasFinding(findings, "bench-snapshot",
                           "bench/missing_snapshot_bench.cc", 5))
        << Dump(findings);
}

// ---------------------------------------------------------------------------
// Lexer edge cases: the token stream the rules consume.
// ---------------------------------------------------------------------------

/** The token texts of every token of @p kind, in order. */
std::vector<std::string>
TextsOf(const LexedSource& lexed, TokKind kind)
{
    std::vector<std::string> out;
    for (const Token& t : lexed.tokens) {
        if (t.kind == kind) {
            out.push_back(t.text);
        }
    }
    return out;
}

TEST(AeoLexerTest, CommentsAndStringsNeverLeakIntoIdentifiers)
{
    const LexedSource lexed = Lex(
        "int a = 1; // trailing rand()\n"
        "const char* p = \"/sys/x\"; /* block\n"
        "spanning */ int device = 2;\n");
    const std::vector<std::string> idents = TextsOf(lexed, TokKind::kIdent);
    // Comment text vanishes entirely; string contents become kString.
    EXPECT_EQ(std::count(idents.begin(), idents.end(), "rand"), 0);
    EXPECT_EQ(std::count(idents.begin(), idents.end(), "spanning"), 0);
    const std::vector<std::string> strings = TextsOf(lexed, TokKind::kString);
    ASSERT_EQ(strings.size(), 1u);
    EXPECT_EQ(strings[0], "/sys/x");
    // Line numbers survive the block comment: `device` sits on line 3.
    for (const Token& t : lexed.tokens) {
        if (t.text == "device") {
            EXPECT_EQ(t.line, 3);
        }
    }
}

TEST(AeoLexerTest, RawStringsSwallowCommentMarkersAndControlTags)
{
    const LexedSource lexed = Lex(
        "const char* r = R\"x(\n"
        "// aeo-lint: allow(layering) -- prose, not a directive\n"
        "\"/sys/inner\")x\";\n"
        "int after = 1;\n");
    // The raw string is one kString token carrying its full body...
    const std::vector<std::string> strings = TextsOf(lexed, TokKind::kString);
    ASSERT_EQ(strings.size(), 1u);
    EXPECT_NE(strings[0].find("aeo-lint"), std::string::npos);
    // ...that never parses as a control comment...
    EXPECT_TRUE(lexed.allows.empty());
    EXPECT_TRUE(lexed.malformed_allows.empty());
    // ...and the newlines inside it still advance the line counter.
    for (const Token& t : lexed.tokens) {
        if (t.text == "after") {
            EXPECT_EQ(t.line, 4);
        }
    }
}

TEST(AeoLexerTest, SplicesFoldAndPreprocessorLinesAreMarked)
{
    const LexedSource lexed = Lex(
        "#define WIDTH 4\n"
        "int tota\\\nl = 1;\n");
    bool saw_total = false;
    for (const Token& t : lexed.tokens) {
        if (t.text == "WIDTH") {
            EXPECT_TRUE(t.preprocessor);
        }
        if (t.text == "total") {
            saw_total = true;
            EXPECT_FALSE(t.preprocessor);
        }
        // The spliced identifier must not surface as two halves.
        EXPECT_NE(t.text, "tota");
        EXPECT_NE(t.text, "l");
    }
    EXPECT_TRUE(saw_total);
}

TEST(AeoLexerTest, ControlCommentsParseOnlyAtTheCommentBodyStart)
{
    const LexedSource lexed = Lex(
        "// aeo-lint: allow(sysfs-literal) -- justified\n"
        "// prose mentioning aeo-lint: allow(layering) does not parse\n"
        "// aeo-lint: allow(unit-literal)\n"
        "// aeo: hot-path\n"
        "// aeo: hot-path-stop -- amortized slow path\n"
        "// aeo: hot-path-stop\n");
    ASSERT_EQ(lexed.allows.size(), 1u);
    EXPECT_EQ(lexed.allows[0].line, 1);
    EXPECT_EQ(lexed.allows[0].rule, "sysfs-literal");
    ASSERT_EQ(lexed.hot_path_annotations.size(), 1u);
    EXPECT_EQ(lexed.hot_path_annotations[0], 4);
    // A stop without a justification is malformed, like a bare allow.
    ASSERT_EQ(lexed.hot_path_stops.size(), 1u);
    EXPECT_EQ(lexed.hot_path_stops[0], 5);
    ASSERT_EQ(lexed.malformed_allows.size(), 2u);
    EXPECT_EQ(lexed.malformed_allows[0], 3);
    EXPECT_EQ(lexed.malformed_allows[1], 6);
}

TEST(AeoLintTest, LexerEdgeFixtureTreeIsClean)
{
    // Raw strings hiding control tags, escaped quotes, comment-only
    // mentions of restricted names, and a spliced identifier: none of it
    // may reach a rule.
    const std::vector<Finding> findings = LintFixture("lexer_edges");
    EXPECT_TRUE(findings.empty()) << Dump(findings);
}

// ---------------------------------------------------------------------------
// Determinism rule family.
// ---------------------------------------------------------------------------

TEST(AeoLintTest, DeterminismBansEntropyClocksAndPointerHashing)
{
    const std::vector<Finding> findings = LintFixture("determinism");
    // Ambient entropy, libc randomness, wall clocks, pointer hashing.
    EXPECT_TRUE(
        HasFinding(findings, "determinism", "src/core/nondet.cc", 4))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "determinism", "src/core/nondet.cc", 9))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "determinism", "src/core/nondet.cc", 10))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "determinism", "src/core/nondet.cc", 16))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "determinism", "src/core/nondet.cc", 22))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "determinism", "src/core/nondet.cc", 28))
        << Dump(findings);
    // Unordered iteration inside a serialization sink, reported at the
    // `for`. src/platform naming steady_clock is the sanctioned seam and
    // contributes nothing.
    EXPECT_TRUE(HasFinding(findings, "determinism",
                           "src/stats/unordered_sink.cc", 9))
        << Dump(findings);
    EXPECT_EQ(findings.size(), 7u) << Dump(findings);
}

// ---------------------------------------------------------------------------
// Hot-path allocation rule family.
// ---------------------------------------------------------------------------

TEST(AeoLintTest, HotPathAllocationsAreTracedThroughTheCallGraph)
{
    const std::vector<Finding> findings = LintFixture("hot_path_alloc");
    // Helper is not annotated itself — the findings come from reachability
    // off the `RunCycle` entry: new, make_unique, std::function, growth.
    EXPECT_TRUE(
        HasFinding(findings, "hot-path-alloc", "src/core/hot.cc", 29))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "hot-path-alloc", "src/core/hot.cc", 31))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "hot-path-alloc", "src/core/hot.cc", 32))
        << Dump(findings);
    EXPECT_TRUE(
        HasFinding(findings, "hot-path-alloc", "src/core/hot.cc", 33))
        << Dump(findings);
    // Refill allocates too, but its justified hot-path-stop cuts the
    // traversal, so nothing in its body is reported.
    // Stamp copies a string into a member (a finding) and then moves one
    // (none).
    EXPECT_TRUE(
        HasFinding(findings, "hot-path-alloc", "src/core/hot.cc", 48))
        << Dump(findings);
    // The trailing annotation attaches to no function: dangling, a finding.
    EXPECT_TRUE(
        HasFinding(findings, "hot-path-alloc", "src/core/hot.cc", 53))
        << Dump(findings);
    EXPECT_EQ(findings.size(), 6u) << Dump(findings);
}

TEST(AeoLintTest, HotPathCallToACleanBaseMemberIsClean)
{
    // Cluster::Frequency calls level() unqualified; level() is defined two
    // bases up (Cluster -> Domain -> Ladder) and allocates nothing, so the
    // call resolves through the base list instead of reading as an
    // unanalyzed external function.
    const std::vector<Finding> findings = LintFixture("hot_path_base_clean");
    EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(AeoLintTest, HotPathCallToAnAllocatingBaseMemberIsReportedInTheBase)
{
    // Meter::Sample calls the inherited Record(), which grows a vector: the
    // finding lands on the allocation inside the base member.
    const std::vector<Finding> findings = LintFixture("hot_path_base_alloc");
    EXPECT_TRUE(HasFinding(findings, "hot-path-alloc", "src/core/recorder.cc", 10))
        << Dump(findings);
    EXPECT_EQ(findings.size(), 1u) << Dump(findings);
}

// ---------------------------------------------------------------------------
// Stale-suppression rule.
// ---------------------------------------------------------------------------

TEST(AeoLintTest, UnusedAllowIsStaleAndUsedAllowIsNot)
{
    const std::vector<Finding> findings = LintFixture("stale_suppression");
    // stale.cc's justified allow suppresses nothing -> a finding at the
    // allow itself; used.cc's allow swallows a real sysfs literal and is
    // therefore silent.
    ASSERT_EQ(findings.size(), 1u) << Dump(findings);
    EXPECT_TRUE(HasFinding(findings, "stale-suppression",
                           "src/apps/stale.cc", 2))
        << Dump(findings);
}

TEST(AeoLintTest, RepoTreeIsClean)
{
    // The local twin of the blocking CI lint job: the actual repo must lint
    // clean. If this fails, fix the violation or add a justified
    // allow-comment per DESIGN.md §11.
    const std::vector<Finding> findings =
        RunLint({.root = AEO_LINT_REPO_ROOT});
    EXPECT_TRUE(findings.empty()) << Dump(findings);
}

}  // namespace
}  // namespace aeo::lint
