#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace aeo {
namespace {

FaultRule
BusyRule(const std::string& prefix, double probability)
{
    FaultRule rule;
    rule.path_prefix = prefix;
    rule.fail_probability = probability;
    rule.errc = FaultErrc::kBusy;
    return rule;
}

TEST(FaultInjectorTest, CleanWithoutRules)
{
    FaultInjector injector(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(injector.OnRead("/sys/anything").ok());
        EXPECT_TRUE(injector.OnWrite("/sys/anything").ok());
    }
    EXPECT_EQ(injector.op_count(), 200u);
    EXPECT_TRUE(injector.trace().empty());
}

TEST(FaultInjectorTest, OnlyMatchingPrefixIsAffected)
{
    FaultInjector injector(1);
    injector.AddRule(BusyRule("/sys/flaky", 1.0));
    EXPECT_EQ(injector.OnWrite("/sys/flaky/node").errc, FaultErrc::kBusy);
    EXPECT_TRUE(injector.OnWrite("/sys/solid/node").ok());
}

TEST(FaultInjectorTest, SameSeedSameOpsGiveIdenticalTraces)
{
    const auto run = [](uint64_t seed) {
        FaultInjector injector(seed);
        FaultRule rule = BusyRule("/sys/a", 0.3);
        rule.stale_probability = 0.2;
        rule.latency_spike_probability = 0.1;
        injector.AddRule(rule);
        injector.AddRule(BusyRule("/sys/b", 0.5));
        for (int i = 0; i < 500; ++i) {
            injector.OnRead(i % 2 == 0 ? "/sys/a/x" : "/sys/b/y");
            injector.OnWrite(i % 3 == 0 ? "/sys/a/x" : "/sys/b/y");
        }
        return injector.trace();
    };
    const std::vector<FaultEvent> first = run(42);
    const std::vector<FaultEvent> second = run(42);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i], second[i]) << "trace diverges at event " << i;
    }
    // A different seed produces a different trace (overwhelmingly likely
    // over 1000 operations at these probabilities).
    EXPECT_FALSE(run(43) == first);
}

TEST(FaultInjectorTest, TransientFaultsClearOnTheirOwn)
{
    FaultInjector injector(7);
    FaultRule rule = BusyRule("/sys/flaky", 0.5);
    rule.max_triggers = 1;
    injector.AddRule(rule);
    // After the single allowed trigger, every operation is clean again.
    int failures = 0;
    for (int i = 0; i < 200; ++i) {
        if (!injector.OnWrite("/sys/flaky/node").ok()) {
            ++failures;
        }
    }
    EXPECT_EQ(failures, 1);
}

TEST(FaultInjectorTest, StickyFaultLatchesUntilRepair)
{
    FaultInjector injector(7);
    FaultRule rule = BusyRule("/sys/flaky", 1.0);
    rule.errc = FaultErrc::kIo;
    rule.duration = FaultDuration::kSticky;
    rule.max_triggers = 1;  // One roll latches; the latch needs no budget.
    injector.AddRule(rule);

    EXPECT_EQ(injector.OnWrite("/sys/flaky/node").errc, FaultErrc::kIo);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(injector.OnWrite("/sys/flaky/node").errc, FaultErrc::kIo);
    }
    // Another path under the same prefix has not latched (and the rule's
    // trigger budget is spent), so it stays clean.
    EXPECT_TRUE(injector.OnWrite("/sys/flaky/other").ok());

    injector.Repair("/sys/flaky/node");
    EXPECT_TRUE(injector.OnWrite("/sys/flaky/node").ok());
}

TEST(FaultInjectorTest, DisappearanceIsStickyEnoent)
{
    FaultInjector injector(3);
    FaultRule rule;
    rule.path_prefix = "/sys/hotplug";
    rule.disappear_probability = 1.0;
    rule.max_triggers = 1;
    injector.AddRule(rule);

    EXPECT_EQ(injector.OnRead("/sys/hotplug/cpu1").errc, FaultErrc::kNoEnt);
    EXPECT_TRUE(injector.IsGone("/sys/hotplug/cpu1"));
    EXPECT_EQ(injector.OnWrite("/sys/hotplug/cpu1").errc, FaultErrc::kNoEnt);
    EXPECT_FALSE(injector.IsGone("/sys/hotplug/cpu2"));

    injector.RepairAll();
    EXPECT_FALSE(injector.IsGone("/sys/hotplug/cpu1"));
    EXPECT_TRUE(injector.OnRead("/sys/hotplug/cpu1").ok());
}

TEST(FaultInjectorTest, LatencySpikeReportsTheRuleDelay)
{
    FaultInjector injector(11);
    FaultRule rule;
    rule.path_prefix = "/sys/slow";
    rule.latency_spike_probability = 1.0;
    rule.latency_spike = SimTime::Millis(80);
    injector.AddRule(rule);

    const FaultDecision decision = injector.OnWrite("/sys/slow/node");
    EXPECT_TRUE(decision.ok());  // late, not failed
    EXPECT_EQ(decision.latency, SimTime::Millis(80));
}

TEST(FaultInjectorTest, StaleAppliesToReadsOnly)
{
    FaultInjector injector(13);
    FaultRule rule;
    rule.path_prefix = "/sys/stale";
    rule.stale_probability = 1.0;
    injector.AddRule(rule);

    EXPECT_TRUE(injector.OnRead("/sys/stale/node").stale);
    EXPECT_FALSE(injector.OnWrite("/sys/stale/node").stale);
}

TEST(FaultInjectorTest, FirstMatchingRuleWins)
{
    FaultInjector injector(17);
    FaultRule specific = BusyRule("/sys/devfreq/node", 1.0);
    specific.errc = FaultErrc::kInval;
    injector.AddRule(specific);
    injector.AddRule(BusyRule("/sys/devfreq", 1.0));

    EXPECT_EQ(injector.OnWrite("/sys/devfreq/node").errc, FaultErrc::kInval);
    EXPECT_EQ(injector.OnWrite("/sys/devfreq/other").errc, FaultErrc::kBusy);
}

TEST(FaultInjectorTest, TraceRecordsOpIndexAndKind)
{
    FaultInjector injector(19);
    injector.AddRule(BusyRule("/sys/x", 1.0));
    injector.OnRead("/sys/clean");   // op index 0, clean: not recorded
    injector.OnWrite("/sys/x/n");    // op index 1, recorded
    ASSERT_EQ(injector.trace().size(), 1u);
    const FaultEvent& event = injector.trace().front();
    EXPECT_EQ(event.op_index, 1u);
    EXPECT_TRUE(event.is_write);
    EXPECT_EQ(event.errc, FaultErrc::kBusy);
    EXPECT_EQ(injector.path(event.path_id), "/sys/x/n");
}

TEST(FaultInjectorTest, ClearDropsRulesAndLatchedState)
{
    FaultInjector injector(23);
    FaultRule rule = BusyRule("/sys/x", 1.0);
    rule.duration = FaultDuration::kSticky;
    injector.AddRule(rule);
    EXPECT_FALSE(injector.OnWrite("/sys/x/n").ok());
    injector.Clear();
    EXPECT_TRUE(injector.OnWrite("/sys/x/n").ok());
}

TEST(FaultInjectorTest, SyncHookRunsBeforeEveryStreamOperation)
{
    FaultInjector injector(29);
    int syncs = 0;
    injector.SetSyncHook([&syncs] { ++syncs; });
    const auto syncs_in = [&syncs](const auto& operation) {
        const int before = syncs;
        operation();
        return syncs - before;
    };
    int handle = -1;
    EXPECT_EQ(syncs_in([&] { handle = injector.AddRule(BusyRule("/sys/x", 1.0)); }),
              1);
    EXPECT_EQ(syncs_in([&] { injector.OnRead("/sys/x/n"); }), 1);
    EXPECT_EQ(syncs_in([&] { injector.OnWrite("/sys/x/n"); }), 1);
    EXPECT_EQ(syncs_in([&] { injector.op_count(); }), 1);
    EXPECT_EQ(syncs_in([&] { injector.trace(); }), 1);
    EXPECT_EQ(syncs_in([&] { injector.Repair("/sys/x/n"); }), 1);
    EXPECT_EQ(syncs_in([&] { injector.RepairPrefix("/sys"); }), 1);
    EXPECT_EQ(syncs_in([&] { injector.RepairAll(); }), 1);
    EXPECT_EQ(syncs_in([&] { injector.RemoveRule(handle); }), 1);
    EXPECT_EQ(syncs_in([&] { injector.Clear(); }), 1);

    // The meter's own block read is what the hook calls, and a meter
    // sample never latches a sysfs path: neither runs the hook.
    FaultInjector::PathQuery query("/dev/monsoon/sample");
    EXPECT_EQ(syncs_in([&] { injector.OnReadBlock(query, 5); }), 0);
    EXPECT_EQ(syncs_in([&] { injector.IsGone("/sys/x/n"); }), 0);

    injector.SetSyncHook(nullptr);
    EXPECT_EQ(syncs_in([&] { injector.OnRead("/sys/x/n"); }), 0);
}

/** The meter's path (power/monsoon.h's kMonsoonFaultPath, longer than a
 * small-string buffer), which none of the sysfs rules below cover. */
constexpr char kMeterPath[] = "/dev/monsoon/sample";

/** Decides @p count reads of @p path one OnRead(path) at a time, the way
 * a block read must; returns what a block would report. */
FaultInjector::ReadBlock
ReadOneByOne(FaultInjector& injector, const std::string& path, int64_t count)
{
    FaultInjector::ReadBlock block;
    for (int64_t i = 0; i < count; ++i) {
        if (injector.OnRead(path).ok()) {
            ++block.kept;
            block.last_kept = i;
        }
    }
    return block;
}

TEST(FaultInjectorTest, CleanBlockOnlyCountsItsReads)
{
    // A rule on another path draws, so a block that drew or skipped an op
    // index would shift every later decision against the twin's.
    FaultInjector block_injector(31);
    FaultInjector twin(31);
    for (FaultInjector* injector : {&block_injector, &twin}) {
        FaultRule rule = BusyRule("/sys/x", 0.4);
        rule.stale_probability = 0.3;
        injector->AddRule(rule);
    }
    FaultInjector::PathQuery query(kMeterPath);
    constexpr int64_t kReads = 1000;

    const FaultInjector::ReadBlock block = block_injector.OnReadBlock(query, kReads);
    EXPECT_EQ(block.kept, kReads);
    EXPECT_EQ(block.last_kept, kReads - 1);
    EXPECT_EQ(block_injector.op_count(), static_cast<uint64_t>(kReads));
    EXPECT_TRUE(block_injector.trace().empty());
    EXPECT_EQ(block_injector.block_counts().clean, 1u);
    EXPECT_EQ(block_injector.block_counts().read_by_read, 0u);

    ReadOneByOne(twin, kMeterPath, kReads);
    for (int i = 0; i < 200; ++i) {
        const FaultDecision a = block_injector.OnRead("/sys/x/n");
        const FaultDecision b = twin.OnRead("/sys/x/n");
        EXPECT_EQ(a.errc, b.errc) << "read " << i;
        EXPECT_EQ(a.stale, b.stale) << "read " << i;
    }
    EXPECT_EQ(block_injector.op_count(), twin.op_count());
    EXPECT_FALSE(twin.trace().empty());
    EXPECT_EQ(block_injector.trace(), twin.trace());
}

TEST(FaultInjectorTest, StickyLatchMidBlockFailsTheRestOfTheBlock)
{
    FaultInjector block_injector(37);
    FaultInjector twin(37);
    for (FaultInjector* injector : {&block_injector, &twin}) {
        // Two stale (kept) reads, then a sticky failure whose one-roll budget
        // is spent by the read that latches: only the latch fails the rest.
        FaultRule stale;
        stale.path_prefix = kMeterPath;
        stale.stale_probability = 1.0;
        stale.max_triggers = 2;
        injector->AddRule(stale);
        FaultRule sticky = BusyRule(kMeterPath, 1.0);
        sticky.errc = FaultErrc::kIo;
        sticky.duration = FaultDuration::kSticky;
        sticky.max_triggers = 1;
        injector->AddRule(sticky);
    }
    FaultInjector::PathQuery query(kMeterPath);
    constexpr int64_t kReads = 10;

    const FaultInjector::ReadBlock block = block_injector.OnReadBlock(query, kReads);
    EXPECT_EQ(block.kept, 2);
    EXPECT_EQ(block.last_kept, 1);
    EXPECT_EQ(block_injector.op_count(), static_cast<uint64_t>(kReads));
    const std::vector<FaultEvent>& trace = block_injector.trace();
    ASSERT_EQ(trace.size(), static_cast<size_t>(kReads));
    EXPECT_TRUE(trace[1].stale);
    for (size_t i = 2; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].errc, FaultErrc::kIo) << "read " << i;
    }

    const FaultInjector::ReadBlock reference = ReadOneByOne(twin, kMeterPath, kReads);
    EXPECT_EQ(block.kept, reference.kept);
    EXPECT_EQ(block.last_kept, reference.last_kept);
    EXPECT_EQ(block_injector.trace(), twin.trace());
    // The next block starts latched.
    EXPECT_EQ(block_injector.OnReadBlock(query, 3).kept, 0);
    EXPECT_EQ(block_injector.block_counts().read_by_read, 2u);
}

TEST(FaultInjectorTest, SpentBudgetMidBlockLetsTheRestOfTheBlockPass)
{
    FaultInjector block_injector(41);
    FaultInjector twin(41);
    for (FaultInjector* injector : {&block_injector, &twin}) {
        FaultRule drops = BusyRule(kMeterPath, 1.0);
        drops.max_triggers = 3;
        injector->AddRule(drops);
    }
    FaultInjector::PathQuery query(kMeterPath);
    constexpr int64_t kReads = 10;

    const FaultInjector::ReadBlock block = block_injector.OnReadBlock(query, kReads);
    EXPECT_EQ(block.kept, kReads - 3);
    EXPECT_EQ(block.last_kept, kReads - 1);
    EXPECT_EQ(block_injector.op_count(), static_cast<uint64_t>(kReads));
    const std::vector<FaultEvent>& trace = block_injector.trace();
    ASSERT_EQ(trace.size(), 3u);
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].op_index, i);
        EXPECT_EQ(trace[i].errc, FaultErrc::kBusy);
    }

    const FaultInjector::ReadBlock reference = ReadOneByOne(twin, kMeterPath, kReads);
    EXPECT_EQ(block.kept, reference.kept);
    EXPECT_EQ(block.last_kept, reference.last_kept);
    EXPECT_EQ(block_injector.trace(), twin.trace());
    // With the budget spent, the next block is clean from its first read.
    EXPECT_EQ(block_injector.OnReadBlock(query, 4).kept, 4);
    EXPECT_EQ(block_injector.block_counts().read_by_read, 1u);
    EXPECT_EQ(block_injector.block_counts().clean, 1u);
}

TEST(FaultInjectorTest, MeterDropsShareOneInternedPath)
{
    FaultInjector injector(43);
    injector.AddRule(BusyRule(kMeterPath, 1.0));
    FaultInjector::PathQuery query(kMeterPath);
    constexpr int64_t kReads = 1000;

    EXPECT_EQ(injector.OnReadBlock(query, kReads).kept, 0);
    const std::vector<FaultEvent>& trace = injector.trace();
    ASSERT_EQ(trace.size(), static_cast<size_t>(kReads));
    for (const FaultEvent& event : trace) {
        EXPECT_EQ(event.path_id, trace.front().path_id);
    }
    EXPECT_EQ(injector.path(trace.front().path_id), kMeterPath);
}

TEST(FaultInjectorTest, SysfsAndMeterEventsResolveToTheirOwnPaths)
{
    FaultInjector block_injector(47);
    FaultInjector twin(47);
    for (FaultInjector* injector : {&block_injector, &twin}) {
        injector->AddRule(BusyRule("/sys/x", 1.0));
        injector->AddRule(BusyRule(kMeterPath, 0.5));
    }
    FaultInjector::PathQuery query(kMeterPath);
    // The meter's first drop comes after a sysfs event and before another
    // sysfs path's first event, so the ids follow first-record order.
    const auto script = [&](FaultInjector& injector, bool blocks) {
        const auto meter = [&](int64_t reads) {
            if (blocks) {
                injector.OnReadBlock(query, reads);
            } else {
                ReadOneByOne(injector, kMeterPath, reads);
            }
        };
        injector.OnWrite("/sys/x/a");
        meter(40);
        injector.OnRead("/sys/x/b");
        injector.OnWrite("/sys/x/a");
        meter(40);
    };
    script(block_injector, /*blocks=*/true);
    script(twin, /*blocks=*/false);

    const std::vector<FaultEvent>& trace = block_injector.trace();
    ASSERT_GT(trace.size(), 4u);
    EXPECT_EQ(block_injector.path(0), "/sys/x/a");
    EXPECT_EQ(block_injector.path(1), kMeterPath);
    EXPECT_EQ(block_injector.path(2), "/sys/x/b");
    for (const FaultEvent& event : trace) {
        const std::string& path = block_injector.path(event.path_id);
        if (event.is_write) {
            EXPECT_EQ(path, "/sys/x/a") << "op " << event.op_index;
        } else if (event.op_index == 41) {  // after a write and 40 meter reads
            EXPECT_EQ(path, "/sys/x/b");
        } else {
            EXPECT_EQ(path, kMeterPath) << "op " << event.op_index;
        }
    }
    EXPECT_EQ(block_injector.trace(), twin.trace());
}

TEST(FaultInjectorTest, ErrcNamesAreErrnoStyle)
{
    EXPECT_STREQ(FaultErrcName(FaultErrc::kOk), "OK");
    EXPECT_STREQ(FaultErrcName(FaultErrc::kNoEnt), "ENOENT");
    EXPECT_STREQ(FaultErrcName(FaultErrc::kBusy), "EBUSY");
    EXPECT_STREQ(FaultErrcName(FaultErrc::kInval), "EINVAL");
    EXPECT_STREQ(FaultErrcName(FaultErrc::kPerm), "EACCES");
    EXPECT_STREQ(FaultErrcName(FaultErrc::kIo), "EIO");
}

}  // namespace
}  // namespace aeo
