/**
 * @file
 * Deterministic fault injection for the kernel-interface and measurement
 * paths.
 *
 * On a real Nexus 6 the controller's I/O is not reliable: sysfs writes
 * return EBUSY while a governor transition is in flight, mpdecision hotplugs
 * a core and its cpufreq directory vanishes mid-run, perf drops samples
 * under load, and the power meter occasionally misses its window (Hoque et
 * al. document this class of Android measurement flakiness in detail). The
 * FaultInjector reproduces those failure modes inside the simulation:
 * guarded operations (virtual sysfs reads/writes, PMU counter reads, power
 * meter samples) consult it and receive an error code, a stale value, or an
 * added latency instead of the clean result.
 *
 * All decisions come from one explicitly seeded Rng, consumed in operation
 * order, so a given seed and operation sequence produce bit-identical fault
 * traces — experiments with faults stay as reproducible as those without.
 */
#ifndef AEO_FAULT_FAULT_INJECTOR_H_
#define AEO_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "sim/time.h"

namespace aeo {

/** Errno-style outcome of one guarded operation. */
enum class FaultErrc {
    kOk = 0,
    kNoEnt,  ///< ENOENT — path disappeared (hotplug-style).
    kBusy,   ///< EBUSY — transient contention on the node.
    kInval,  ///< EINVAL — the value was rejected.
    kPerm,   ///< EACCES — write to a read-only node.
    kIo,     ///< EIO — the operation failed outright.
};

/** Human-readable errno-style name ("EBUSY", ...). */
const char* FaultErrcName(FaultErrc errc);

/** Whether a triggered fault clears itself or latches. */
enum class FaultDuration {
    kTransient,  ///< Each operation rolls independently.
    kSticky,     ///< Once triggered, the path keeps failing until Repair().
};

/** One failure mode covering all paths with a common prefix. */
struct FaultRule {
    /** Operations on paths starting with this prefix are covered. */
    std::string path_prefix;
    /** Per-operation probability of returning @ref errc. */
    double fail_probability = 0.0;
    /** Error injected when the failure fires. */
    FaultErrc errc = FaultErrc::kBusy;
    /** Transient (default) or sticky failure. */
    FaultDuration duration = FaultDuration::kTransient;
    /** Reads only: probability of serving the previous value unchanged. */
    double stale_probability = 0.0;
    /** Probability of the operation completing late. */
    double latency_spike_probability = 0.0;
    /** Added latency when a spike fires. */
    SimTime latency_spike = SimTime::Millis(50);
    /**
     * Per-operation probability that the path disappears entirely (sticky
     * ENOENT + Exists() false), as when mpdecision offlines a core.
     */
    double disappear_probability = 0.0;
    /**
     * Writes only: probability of a *silent clamp* — the write reports
     * success but a lower value is applied, as when msm_thermal caps
     * scaling_max_freq underneath a userspace-governor write. Numeric
     * payloads are scaled by @ref silent_clamp_factor before reaching the
     * file; only read-back can expose the substitution.
     */
    double silent_clamp_probability = 0.0;
    /** Multiplier applied to the written value when a silent clamp fires. */
    double silent_clamp_factor = 0.5;
    /** Stop firing after this many triggers; negative = unlimited. Lets
     * tests stage exact failure counts deterministically. */
    int max_triggers = -1;
};

/** What the injector decided for one operation. */
struct FaultDecision {
    FaultErrc errc = FaultErrc::kOk;
    /** Reads only: serve the last successfully read value. */
    bool stale = false;
    /** Added completion latency (zero when no spike fired). */
    SimTime latency = SimTime::Zero();
    /** Writes only: report success but apply a clamped-down value. */
    bool silent_clamp = false;
    /** Multiplier for the applied value when silently clamped. */
    double clamp_factor = 1.0;

    bool ok() const { return errc == FaultErrc::kOk; }
};

/**
 * One non-clean decision, recorded for determinism checks and reports.
 * Trivially copyable: the path is an id into its injector's path table, so
 * recording an event copies no string (FaultInjector::path() resolves it).
 */
struct FaultEvent {
    uint64_t op_index = 0;
    /** The operation's path, as FaultInjector::path() numbers it. */
    uint32_t path_id = 0;
    bool is_write = false;
    FaultErrc errc = FaultErrc::kOk;
    bool stale = false;
    int64_t latency_us = 0;
    bool silent_clamp = false;
};
static_assert(std::is_trivially_copyable_v<FaultEvent>);

/** Field-wise; paths compare by id. An injector numbers its paths in the
 * order it first records them, so twin injectors that see the same
 * operations number them alike. */
bool operator==(const FaultEvent& a, const FaultEvent& b);

/** Seeded source of injected failures for guarded I/O paths. */
class FaultInjector {
  public:
    /**
     * Reusable, memoized lookup for one hot guarded path.
     *
     * Resolving a decision normally costs two latched-state map lookups
     * plus a prefix scan over every rule — per operation. A PathQuery
     * caches that resolution (latched? which rule?) against a topology
     * version the injector bumps whenever anything that could change the
     * answer changes (rules added/removed/spent, sticky/gone state latched
     * or repaired). The power monitor decides the sample-clock ticks of
     * each catch-up through one of these with OnReadBlock(); the decision
     * stream — RNG draws, op indices, trace — is bit-identical to one
     * OnRead(path) per tick. From its first recorded event on, the query
     * also keeps its path's id, so a later event neither searches the path
     * table nor allocates. A query serves one injector.
     */
    class PathQuery {
      public:
        explicit PathQuery(std::string path) : path_(std::move(path)) {}

        const std::string& path() const { return path_; }

      private:
        friend class FaultInjector;
        std::string path_;
        /** Injector topology the cached fields were resolved against;
         * 0 never matches (versions start at 1). */
        uint64_t version_ = 0;
        /** Index of the first active matching rule, -1 for none. */
        int rule_ = -1;
        /** Path has latched sticky/gone state: take the full slow path. */
        bool latched_ = false;
        /** The path's id in the trace's path table; kNoPathId until the
         * first event of the path is recorded through this query. */
        uint32_t path_id_ = kNoPathId;
    };

    /** What OnReadBlock() decided for a block of reads. */
    struct ReadBlock {
        /** Reads that came back ok (stale or late ones included). */
        int64_t kept = 0;
        /** Index in the block of the last kept read; -1 when none was. */
        int64_t last_kept = -1;
    };

    /** OnReadBlock() calls so far, by how their reads were decided. */
    struct BlockCounts {
        /** Blocks that found no matching rule and no latched state at their
         * first read, and so only counted their reads. */
        uint64_t clean = 0;
        /** Blocks that decided at least their first read on its own. */
        uint64_t read_by_read = 0;
    };

    /** @param seed Seed for the decision stream. */
    explicit FaultInjector(uint64_t seed);

    /** Guarded components and the sync hook's owner hold its address. */
    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /**
     * Registers a hook that runs first in OnRead/OnWrite(path), the rule and
     * repair mutators, op_count() and trace(): the power monitor decides its
     * pending samples there, before anything else reads or changes the
     * decision stream. So nothing but a block's own reads can change the
     * decision stream while OnReadBlock(), the monitor's own call, runs; it
     * does not run the hook. Nor does IsGone(): a sample can latch only the
     * meter's path, which no sysfs node has. nullptr removes it.
     */
    void SetSyncHook(std::function<void()> hook) { sync_hook_ = std::move(hook); }

    /**
     * Adds a failure mode; rules are consulted in insertion order and the
     * first *active* prefix match wins — a removed rule or one whose
     * max_triggers budget is spent no longer shadows later rules on the
     * same node. Returns a handle for RemoveRule(); handles stay valid
     * until Clear().
     */
    int AddRule(FaultRule rule);

    /** Deactivates the rule behind @p handle (latched state is kept; use
     * Repair()/RepairPrefix() to clear it). No-op on a stale handle. */
    void RemoveRule(int handle);

    /** Drops all rules and latched state (the trace is kept). */
    void Clear();

    /** Consults the rules for a read of @p path. */
    FaultDecision OnRead(const std::string& path);

    /** Consults the rules for a write to @p path. */
    FaultDecision OnWrite(const std::string& path);

    /**
     * Decides @p count reads of the query's path in order, exactly as
     * @p count OnRead(path) calls would, but through the query's memo and
     * without the sync hook. While the memo finds no matching rule and no
     * latched state, a read only counts itself and comes back clean, and
     * only a read of this block could change that; so from such a read on,
     * the rest of the block is one op_count_ addition. Other reads are
     * decided one by one, and the memo is resolved again after any read
     * that changed a rule or latched the path.
     */
    ReadBlock OnReadBlock(PathQuery& query, int64_t count);

    /** How the OnReadBlock() calls so far were decided. */
    const BlockCounts& block_counts() const { return block_counts_; }

    /** True if @p path has disappeared (hotplug-style). */
    bool IsGone(const std::string& path) const;

    /** Clears sticky/disappeared state latched for @p path. */
    void Repair(const std::string& path);

    /** Clears sticky/disappeared state for every path under @p prefix. */
    void RepairPrefix(const std::string& prefix);

    /** Clears all sticky/disappeared state. Spent max_triggers budgets are
     * NOT restored: repair heals the node, not the rule. */
    void RepairAll();

    /** Operations consulted so far (clean ones included). */
    uint64_t
    op_count()
    {
        Sync();
        return op_count_;
    }

    /** Events the trace keeps; later ones are dropped. */
    static constexpr size_t kTraceLimit = 100000;

    /**
     * Non-clean decisions, in operation order; the first kTraceLimit are
     * kept. Each event names its path by id; path() resolves it while this
     * injector lives, so a trace that outlives its injector still compares
     * but no longer resolves.
     */
    const std::vector<FaultEvent>&
    trace()
    {
        Sync();
        return trace_;
    }

    /** The path of the trace's events whose path_id is @p id. */
    const std::string& path(uint32_t id) const;

  private:
    /** PathQuery::path_id_ before its path is in the table. */
    static constexpr uint32_t kNoPathId = ~uint32_t{0};

    void
    Sync()
    {
        if (sync_hook_) {
            sync_hook_();
        }
    }

    /**
     * Decides one operation on @p path. @p path_id caches the path's id in
     * the path table (kNoPathId until known); Roll() and Record() take and
     * fill it the same way.
     */
    FaultDecision Decide(const std::string& path, uint32_t& path_id,
                         bool is_write);
    /** First active, unspent rule whose prefix covers @p path; -1 none. */
    int FindRule(const std::string& path) const;
    /** Rolls the probability cascade for a matched rule. */
    FaultDecision Roll(FaultRule& rule, const std::string& path,
                       uint32_t& path_id, bool is_write);
    /** Latches @p path as gone, or else as failing sticky with @p errc. */
    void Latch(const std::string& path, bool gone, FaultErrc errc);
    void Record(const std::string& path, uint32_t& path_id, bool is_write,
                const FaultDecision& decision);
    /** The path table's id for @p path; adds the path on first sight. */
    uint32_t PathId(const std::string& path);
    uint32_t InternPath(const std::string& path);
    /** Invalidates outstanding PathQuery memos. */
    void BumpVersion() { ++topology_version_; }

    Rng rng_;
    std::vector<FaultRule> rules_;
    /** Parallel to rules_: false once RemoveRule() retired the rule. */
    std::vector<char> rule_active_;
    /** Paths whose sticky failure has latched, with the latched error. */
    std::map<std::string, FaultErrc> sticky_;
    /** Paths that have disappeared. */
    std::set<std::string> gone_;
    /** Bumped on any rule or latched-state change; see PathQuery. */
    uint64_t topology_version_ = 1;
    uint64_t op_count_ = 0;
    BlockCounts block_counts_;
    std::vector<FaultEvent> trace_;
    /** The trace's distinct paths, in the order they were first recorded;
     * a FaultEvent's path_id indexes it. */
    std::vector<std::string> paths_;
    std::function<void()> sync_hook_;
};

}  // namespace aeo

#endif  // AEO_FAULT_FAULT_INJECTOR_H_
