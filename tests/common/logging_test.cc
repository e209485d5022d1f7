#include "common/logging.h"

#include <gtest/gtest.h>

namespace aeo {
namespace {

TEST(LoggingTest, FatalThrowsWithFormattedMessage)
{
    try {
        Fatal("bad value %d for '%s'", 42, "knob");
        FAIL() << "Fatal did not throw";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "bad value 42 for 'knob'");
    }
}

TEST(LoggingTest, LogLevelRoundTrips)
{
    const LogLevel before = GetLogLevel();
    SetLogLevel(LogLevel::kQuiet);
    EXPECT_EQ(GetLogLevel(), LogLevel::kQuiet);
    SetLogLevel(before);
}

TEST(LoggingTest, AssertPassesOnTrueCondition)
{
    AEO_ASSERT(1 + 1 == 2, "math works");
    SUCCEED();
}

TEST(LoggingDeathTest, AssertAbortsOnFalseCondition)
{
    EXPECT_DEATH({ AEO_ASSERT(false, "expected failure %d", 7); }, "expected failure 7");
}

TEST(LoggingDeathTest, AssertPanicLineCarriesConditionAndFormattedMessage)
{
    const int level = 3;
    EXPECT_DEATH(
        { AEO_ASSERT(level < 2, "level %d of %s above %.1f", level, "cpu", 1.5); },
        "\\[aeo:panic\\] .*logging_test\\.cc:[0-9]+: assertion failed: level < 2 — "
        "level 3 of cpu above 1\\.5");
}

TEST(LoggingDeathTest, AssertWithoutMessageNamesTheCondition)
{
    const int cores = 0;
    EXPECT_DEATH({ AEO_ASSERT(cores > 0); }, "assertion failed: cores > 0 — ");
}

TEST(LoggingDeathTest, AssertConditionTextIsNotAFormat)
{
    // The condition is printed as text, never read as a printf format.
    const int busy = 7;
    EXPECT_DEATH({ AEO_ASSERT(busy % 2 == 0, "odd"); },
                 "assertion failed: busy % 2 == 0 — odd");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH({ AEO_PANIC("boom %s", "now"); }, "boom now");
}

}  // namespace
}  // namespace aeo
