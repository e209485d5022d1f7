#include "fault/fault_injector.h"

#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace aeo {

const char*
FaultErrcName(FaultErrc errc)
{
    switch (errc) {
    case FaultErrc::kOk:
        return "OK";
    case FaultErrc::kNoEnt:
        return "ENOENT";
    case FaultErrc::kBusy:
        return "EBUSY";
    case FaultErrc::kInval:
        return "EINVAL";
    case FaultErrc::kPerm:
        return "EACCES";
    case FaultErrc::kIo:
        return "EIO";
    }
    return "?";
}

bool
operator==(const FaultEvent& a, const FaultEvent& b)
{
    return a.op_index == b.op_index && a.path_id == b.path_id &&
           a.is_write == b.is_write && a.errc == b.errc && a.stale == b.stale &&
           a.latency_us == b.latency_us && a.silent_clamp == b.silent_clamp;
}

FaultInjector::FaultInjector(uint64_t seed) : rng_(seed) {}

int
FaultInjector::AddRule(FaultRule rule)
{
    AEO_ASSERT(!rule.path_prefix.empty(), "fault rule needs a path prefix");
    AEO_ASSERT(rule.fail_probability >= 0.0 && rule.fail_probability <= 1.0 &&
                   rule.stale_probability >= 0.0 && rule.stale_probability <= 1.0 &&
                   rule.latency_spike_probability >= 0.0 &&
                   rule.latency_spike_probability <= 1.0 &&
                   rule.disappear_probability >= 0.0 &&
                   rule.disappear_probability <= 1.0 &&
                   rule.silent_clamp_probability >= 0.0 &&
                   rule.silent_clamp_probability <= 1.0,
               "fault probabilities for '%s' out of [0, 1]",
               rule.path_prefix.c_str());
    AEO_ASSERT(rule.silent_clamp_factor > 0.0 && rule.silent_clamp_factor <= 1.0,
               "silent clamp factor for '%s' out of (0, 1]",
               rule.path_prefix.c_str());
    Sync();
    rules_.push_back(std::move(rule));
    rule_active_.push_back(1);
    BumpVersion();
    return static_cast<int>(rules_.size()) - 1;
}

void
FaultInjector::RemoveRule(int handle)
{
    Sync();
    if (handle >= 0 && handle < static_cast<int>(rule_active_.size())) {
        rule_active_[static_cast<size_t>(handle)] = 0;
        BumpVersion();
    }
}

void
FaultInjector::Clear()
{
    Sync();
    rules_.clear();
    rule_active_.clear();
    sticky_.clear();
    gone_.clear();
    BumpVersion();
}

FaultDecision
FaultInjector::OnRead(const std::string& path)
{
    Sync();
    uint32_t path_id = kNoPathId;
    return Decide(path, path_id, /*is_write=*/false);
}

FaultDecision
FaultInjector::OnWrite(const std::string& path)
{
    Sync();
    uint32_t path_id = kNoPathId;
    return Decide(path, path_id, /*is_write=*/true);
}

// aeo: hot-path
FaultInjector::ReadBlock
FaultInjector::OnReadBlock(PathQuery& query, int64_t count)
{
    ReadBlock block;
    for (int64_t i = 0; i < count; ++i) {
        if (query.version_ != topology_version_) {
            query.version_ = topology_version_;
            query.latched_ = gone_.count(query.path_) != 0 ||
                             sticky_.count(query.path_) != 0;
            query.rule_ = FindRule(query.path_);
        }
        const bool clean = !query.latched_ && query.rule_ < 0;
        if (i == 0) {
            ++(clean ? block_counts_.clean : block_counts_.read_by_read);
        }
        if (clean) {
            // Each remaining read would only count itself: nothing draws,
            // nothing records, and no other operation runs before the block
            // ends (the sync hook), so nothing can bump the version.
            op_count_ += static_cast<uint64_t>(count - i);
            block.kept += count - i;
            block.last_kept = count - 1;
            return block;
        }
        FaultDecision decision;
        if (query.latched_) {
            // Every latched operation records a trace event anyway — no
            // point memoizing the map lookups.
            decision = Decide(query.path_, query.path_id_, /*is_write=*/false);
        } else {
            ++op_count_;
            decision = Roll(rules_[static_cast<size_t>(query.rule_)], query.path_,
                            query.path_id_, /*is_write=*/false);
        }
        if (decision.ok()) {
            ++block.kept;
            block.last_kept = i;
        }
    }
    return block;
}

bool
FaultInjector::IsGone(const std::string& path) const
{
    return gone_.count(path) != 0;
}

const std::string&
FaultInjector::path(uint32_t id) const
{
    AEO_ASSERT(id < paths_.size(), "no fault-trace path has id %u", id);
    return paths_[id];
}

void
FaultInjector::Repair(const std::string& path)
{
    Sync();
    sticky_.erase(path);
    gone_.erase(path);
    BumpVersion();
}

void
FaultInjector::RepairPrefix(const std::string& prefix)
{
    Sync();
    for (auto it = sticky_.begin(); it != sticky_.end();) {
        it = StartsWith(it->first, prefix) ? sticky_.erase(it) : std::next(it);
    }
    for (auto it = gone_.begin(); it != gone_.end();) {
        it = StartsWith(*it, prefix) ? gone_.erase(it) : std::next(it);
    }
    BumpVersion();
}

void
FaultInjector::RepairAll()
{
    Sync();
    sticky_.clear();
    gone_.clear();
    BumpVersion();
}

int
FaultInjector::FindRule(const std::string& path) const
{
    // First active, unspent prefix match wins. Removed rules and rules with
    // an exhausted max_triggers budget are skipped entirely so an
    // overlapping later rule on the same node still applies.
    for (size_t i = 0; i < rules_.size(); ++i) {
        if (rule_active_[i] == 0 || rules_[i].max_triggers == 0) {
            continue;
        }
        if (StartsWith(path, rules_[i].path_prefix)) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

FaultDecision
FaultInjector::Decide(const std::string& path, uint32_t& path_id, bool is_write)
{
    ++op_count_;
    FaultDecision decision;

    // Latched state wins: a disappeared path stays ENOENT and a sticky
    // failure keeps returning its error until repaired.
    if (gone_.count(path) != 0) {
        decision.errc = FaultErrc::kNoEnt;
        Record(path, path_id, is_write, decision);
        return decision;
    }
    if (const auto it = sticky_.find(path); it != sticky_.end()) {
        decision.errc = it->second;
        Record(path, path_id, is_write, decision);
        return decision;
    }

    const int rule = FindRule(path);
    if (rule < 0) {
        return decision;
    }
    return Roll(rules_[static_cast<size_t>(rule)], path, path_id, is_write);
}

FaultDecision
FaultInjector::Roll(FaultRule& rule, const std::string& path, uint32_t& path_id,
                    bool is_write)
{
    FaultDecision decision;
    const auto consume_trigger = [&] {
        if (rule.max_triggers > 0 && --rule.max_triggers == 0) {
            BumpVersion();  // the rule no longer matches anything
        }
    };

    if (rule.disappear_probability > 0.0 &&
        rng_.Bernoulli(rule.disappear_probability)) {
        consume_trigger();
        Latch(path, /*gone=*/true, FaultErrc::kNoEnt);
        decision.errc = FaultErrc::kNoEnt;
        Record(path, path_id, is_write, decision);
        return decision;
    }
    if (rule.fail_probability > 0.0 && rng_.Bernoulli(rule.fail_probability)) {
        consume_trigger();
        decision.errc = rule.errc;
        if (rule.duration == FaultDuration::kSticky) {
            Latch(path, /*gone=*/false, rule.errc);
        }
        Record(path, path_id, is_write, decision);
        return decision;
    }
    if (is_write && rule.silent_clamp_probability > 0.0 &&
        rng_.Bernoulli(rule.silent_clamp_probability)) {
        consume_trigger();
        decision.silent_clamp = true;
        decision.clamp_factor = rule.silent_clamp_factor;
        Record(path, path_id, is_write, decision);
        return decision;
    }
    if (!is_write && rule.stale_probability > 0.0 &&
        rng_.Bernoulli(rule.stale_probability)) {
        consume_trigger();
        decision.stale = true;
    }
    if (rule.latency_spike_probability > 0.0 &&
        rng_.Bernoulli(rule.latency_spike_probability)) {
        consume_trigger();
        decision.latency = rule.latency_spike;
    }
    if (decision.stale || decision.latency > SimTime::Zero()) {
        Record(path, path_id, is_write, decision);
    }
    return decision;
}

// aeo: hot-path-stop -- latching a path: the gone/sticky set copies the path
// into a new node, once per latch; every later operation on the latched
// path only looks it up.
void
FaultInjector::Latch(const std::string& path, bool gone, FaultErrc errc)
{
    if (gone) {
        gone_.insert(path);
    } else {
        sticky_.emplace(path, errc);
    }
    BumpVersion();
}

void
FaultInjector::Record(const std::string& path, uint32_t& path_id, bool is_write,
                      const FaultDecision& decision)
{
    if (trace_.size() >= kTraceLimit) {
        return;
    }
    if (path_id == kNoPathId) {
        path_id = PathId(path);
    }
    FaultEvent event;
    event.op_index = op_count_ - 1;
    event.path_id = path_id;
    event.is_write = is_write;
    event.errc = decision.errc;
    event.stale = decision.stale;
    event.latency_us = decision.latency.micros();
    event.silent_clamp = decision.silent_clamp;
    // aeo-lint: allow(hot-path-alloc) -- amortized growth of the bounded
    // trace: it reallocates only past its capacity, at most kTraceLimit events.
    trace_.push_back(event);
}

uint32_t
FaultInjector::PathId(const std::string& path)
{
    for (size_t id = 0; id < paths_.size(); ++id) {
        if (paths_[id] == path) {
            return static_cast<uint32_t>(id);
        }
    }
    return InternPath(path);
}

// aeo: hot-path-stop -- first sight of a path in the trace's path table:
// copies the path once; every later event of the path records its id.
uint32_t
FaultInjector::InternPath(const std::string& path)
{
    paths_.push_back(path);
    return static_cast<uint32_t>(paths_.size() - 1);
}

}  // namespace aeo
