/**
 * @file
 * Seeded mutation fuzzer for the JSON parser, whose input includes
 * user-supplied crash bundles (`robustness_chaos_campaign --replay=`).
 *
 * The corpus is the committed bench snapshots plus a crash bundle written
 * by the bundle writer. Each case mutates one corpus document (byte flips,
 * deletions, insertions of JSON punctuation and digits, truncations, long
 * runs of '[' or '{') and parses it. Every case must return without
 * crashing, and every accepted document must survive Dump -> ParseJson ->
 * Dump unchanged. Bundle-derived cases also go through the bundle reader.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/crash_bundle.h"
#include "chaos/scenario_generator.h"
#include "common/json.h"
#include "common/random.h"

namespace aeo {
namespace {

constexpr int kCasesPerDocument = 300;

std::string
ReadFile(const std::filesystem::path& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<std::string>
SnapshotCorpus()
{
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(AEO_SNAPSHOT_DIR)) {
        if (entry.path().extension() == ".json") {
            paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> corpus;
    for (const auto& path : paths) {
        corpus.push_back(ReadFile(path));
    }
    return corpus;
}

/** A crash bundle as WriteCrashBundle lays it out. */
std::string
FreshBundle()
{
    chaos::CrashBundle bundle;
    bundle.app = "AngryBirds";
    bundle.target_gips = 0.35;
    bundle.profile_seed = 3017;
    bundle.device_seed = 0x5eedc0de5eedc0deull;
    bundle.scenario = chaos::GenerateScenario(bundle.spec, 2017);
    bundle.report.seed = 2017;
    bundle.report.cycles = 42;
    bundle.report.verdicts.push_back({"energy-bound", 1, 17, 17.5, "over budget"});
    bundle.report.verdicts.push_back({"watchdog", 0, -1, 0.0, ""});
    bundle.report.total_violations = 1;
    bundle.report.first_violation_cycle = 17;
    bundle.report.first_violation_monitor = "energy-bound";
    bundle.report.cycle_tail.resize(3);
    return chaos::CrashBundleToJson(bundle).Dump(2) + "\n";
}

/** One random edit of @p doc. */
std::string
Mutate(std::string doc, Rng& rng)
{
    static const std::string kInserts = "[]{}\",:0123456789";
    const auto pick = [&rng](size_t size) {
        return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(size)));
    };
    const int edits = static_cast<int>(rng.UniformInt(1, 4));
    for (int e = 0; e < edits; ++e) {
        const size_t at = pick(doc.size());
        switch (rng.UniformInt(0, 4)) {
          case 0:
            if (at < doc.size()) {
                doc[at] = static_cast<char>(doc[at] ^ (1 << rng.UniformInt(0, 7)));
            }
            break;
          case 1:
            doc.erase(at, static_cast<size_t>(rng.UniformInt(1, 16)));
            break;
          case 2:
            doc.insert(at, 1, kInserts[pick(kInserts.size() - 1)]);
            break;
          case 3:
            doc.resize(at);
            break;
          default:
            doc.insert(at, static_cast<size_t>(rng.UniformInt(1, 5000)),
                       rng.Bernoulli(0.5) ? '[' : '{');
            break;
        }
    }
    return doc;
}

/** Parses @p doc; an accepted document must round-trip through Dump. */
void
CheckCase(const std::string& doc)
{
    const JsonParseResult parsed = ParseJson(doc);
    if (!parsed.ok) {
        EXPECT_FALSE(parsed.error.empty());
        return;
    }
    const std::string dumped = parsed.value.Dump();
    const JsonParseResult again = ParseJson(dumped);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.value.Dump(), dumped);
}

TEST(JsonFuzzTest, CorpusRoundTripsUnchanged)
{
    std::vector<std::string> corpus = SnapshotCorpus();
    ASSERT_EQ(corpus.size(), 8u);
    corpus.push_back(FreshBundle());
    for (const std::string& doc : corpus) {
        const JsonParseResult parsed = ParseJson(doc);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        CheckCase(doc);
    }
    EXPECT_TRUE(chaos::ParseCrashBundle(corpus.back()).ok);
}

TEST(JsonFuzzTest, MutatedDocumentsNeverCrashTheParser)
{
    std::vector<std::string> corpus = SnapshotCorpus();
    corpus.push_back(FreshBundle());
    Rng rng(0x15F0220);
    int accepted = 0;
    for (size_t d = 0; d < corpus.size(); ++d) {
        const bool bundle = d + 1 == corpus.size();
        for (int i = 0; i < kCasesPerDocument; ++i) {
            const std::string doc = Mutate(corpus[d], rng);
            SCOPED_TRACE("document " + std::to_string(d) + ", case " +
                         std::to_string(i));
            CheckCase(doc);
            accepted += ParseJson(doc).ok ? 1 : 0;
            if (bundle) {
                const chaos::CrashBundleReadResult read =
                    chaos::ParseCrashBundle(doc);
                EXPECT_TRUE(read.ok || !read.error.empty());
            }
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
    }
    // Some edits keep a document valid, so the round-trip check does run.
    EXPECT_GT(accepted, 0);
}

TEST(JsonFuzzTest, DeepNestingFailsWithAPositionedError)
{
    // A million levels of arrays, and of objects: the 65th opener fails.
    for (const std::string level : {"[", "{\"k\":"}) {
        std::string doc;
        for (int i = 0; i < 1000000; ++i) {
            doc += level;
        }
        const JsonParseResult parsed = ParseJson(doc);
        EXPECT_FALSE(parsed.ok);
        const size_t column = kJsonMaxDepth * level.size() + 1;
        EXPECT_EQ(parsed.error, "line 1, column " + std::to_string(column) +
                                    ": nesting deeper than " +
                                    std::to_string(kJsonMaxDepth) + " levels");
    }
    // The limit itself is accepted.
    const std::string deepest =
        std::string(kJsonMaxDepth, '[') + std::string(kJsonMaxDepth, ']');
    EXPECT_TRUE(ParseJson(deepest).ok);
    EXPECT_FALSE(ParseJson("[" + deepest + "]").ok);
}

}  // namespace
}  // namespace aeo
