#include "core/profile_table.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/csv.h"
#include "common/interpolate.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace aeo {

ProfileTable::ProfileTable(std::string app_name, std::vector<ProfileEntry> entries,
                           double base_speed_gips)
    : app_name_(std::move(app_name)),
      entries_(std::move(entries)),
      base_speed_gips_(base_speed_gips)
{
    std::sort(entries_.begin(), entries_.end(),
              [](const ProfileEntry& a, const ProfileEntry& b) {
                  if (a.speedup != b.speedup) {
                      return a.speedup < b.speedup;
                  }
                  return a.config < b.config;
              });
    Validate();
}

void
ProfileTable::Validate() const
{
    AEO_ASSERT(!entries_.empty(), "profile table for '%s' is empty", app_name_.c_str());
    AEO_ASSERT(base_speed_gips_ > 0.0, "base speed must be positive, got %f",
               base_speed_gips_);
    for (const ProfileEntry& entry : entries_) {
        AEO_ASSERT(entry.speedup > 0.0, "non-positive speedup %f at %s", entry.speedup,
                   entry.config.ToString().c_str());
        AEO_ASSERT(entry.power_mw.value() > 0.0, "non-positive power %f at %s",
                   entry.power_mw.value(), entry.config.ToString().c_str());
    }
}

ProfileTable
ProfileTable::FromMeasurements(const std::string& app_name,
                               const std::vector<ProfileMeasurement>& measurements)
{
    AEO_ASSERT(!measurements.empty(), "no measurements for '%s'", app_name.c_str());
    // §III-A: speedups are normalized to the *lowest system configuration*
    // (lowest CPU frequency and bandwidth among those profiled) — not to
    // the minimum measured rate, which would bias the reference low for
    // applications whose GIPS is nearly configuration-independent.
    const ProfileMeasurement* reference = &measurements.front();
    for (const ProfileMeasurement& m : measurements) {
        AEO_ASSERT(m.gips > 0.0, "non-positive GIPS at %s", m.config.ToString().c_str());
        if (m.config < reference->config) {
            reference = &m;
        }
    }
    const double base_gips = reference->gips;
    std::vector<ProfileEntry> entries;
    entries.reserve(measurements.size());
    for (const ProfileMeasurement& m : measurements) {
        entries.push_back(ProfileEntry{m.config, m.gips / base_gips, m.power_mw});
    }
    return ProfileTable(app_name, std::move(entries), base_gips);
}

ProfileTable
ProfileTable::InterpolateBandwidths(const BandwidthTable& bw_table) const
{
    // Group rows by (CPU level, GPU level) so extended tables interpolate
    // within each GPU setting.
    std::map<std::pair<int, int>, std::vector<ProfileEntry>> by_cpu;
    for (const ProfileEntry& entry : entries_) {
        AEO_ASSERT(entry.config.controls_bandwidth(),
                   "cannot interpolate a CPU-only profile table");
        by_cpu[{entry.config.cpu_level, entry.config.gpu_level}].push_back(entry);
    }

    std::vector<ProfileEntry> dense;
    for (auto& [key, rows] : by_cpu) {
        const auto [cpu_level, gpu_level] = key;
        AEO_ASSERT(rows.size() >= 2,
                   "CPU level %d has %zu bandwidth points; need at least 2 to "
                   "interpolate",
                   cpu_level, rows.size());
        std::sort(rows.begin(), rows.end(),
                  [](const ProfileEntry& a, const ProfileEntry& b) {
                      return a.config.bw_level < b.config.bw_level;
                  });
        std::vector<double> xs;
        std::vector<double> speedups;
        std::vector<double> powers;
        for (const ProfileEntry& row : rows) {
            xs.push_back(bw_table.BandwidthAt(row.config.bw_level).value());
            speedups.push_back(row.speedup);
            powers.push_back(row.power_mw.value());
        }
        const PiecewiseLinear speedup_fn(xs, speedups);
        const PiecewiseLinear power_fn(xs, powers);

        const int lo = rows.front().config.bw_level;
        const int hi = rows.back().config.bw_level;
        for (int bw = lo; bw <= hi; ++bw) {
            const double mbps = bw_table.BandwidthAt(bw).value();
            dense.push_back(ProfileEntry{SystemConfig{cpu_level, bw, gpu_level},
                                         speedup_fn(mbps), Milliwatts(power_fn(mbps))});
        }
    }
    return ProfileTable(app_name_, std::move(dense), base_speed_gips_);
}

ProfileTable
ProfileTable::PruneEpsilonDominated(double epsilon_rel) const
{
    AEO_ASSERT(epsilon_rel >= 0.0, "negative pruning epsilon");
    const double epsilon = epsilon_rel * max_speedup();

    // Greedy ε-staircase by ascending power: a row earns its (higher) power
    // only by adding more than ε of speedup over everything cheaper. This
    // is deliberately non-chaining: dense ladders of tiny steps (e.g. the 13
    // interpolated bandwidth columns) are thinned without erasing their
    // cumulative speedup.
    std::vector<ProfileEntry> by_power = entries_;
    std::sort(by_power.begin(), by_power.end(),
              [](const ProfileEntry& a, const ProfileEntry& b) {
                  if (a.power_mw != b.power_mw) {
                      return a.power_mw < b.power_mw;
                  }
                  return a.speedup > b.speedup;
              });

    std::vector<ProfileEntry> kept;
    double kept_max_speedup = -1.0;
    for (const ProfileEntry& row : by_power) {
        if (kept.empty() || row.speedup > kept_max_speedup + epsilon) {
            kept.push_back(row);
            kept_max_speedup = std::max(kept_max_speedup, row.speedup);
        }
    }
    AEO_ASSERT(!kept.empty(), "pruning removed every row");
    return ProfileTable(app_name_, std::move(kept), base_speed_gips_);
}

ProfileTable
ProfileTable::PruneSteepTail(double slope_factor,
                             double protect_below_speedup) const
{
    AEO_ASSERT(slope_factor > 0.0, "slope factor must be positive");
    const double speedup_range = max_speedup() - min_speedup();
    if (speedup_range <= 0.0 || entries_.size() < 3) {
        return *this;
    }
    double power_min = entries_.front().power_mw.value();
    double power_max = power_min;
    for (const ProfileEntry& row : entries_) {
        power_min = std::min(power_min, row.power_mw.value());
        power_max = std::max(power_max, row.power_mw.value());
    }
    const double average_slope = (power_max - power_min) / speedup_range;
    if (average_slope <= 0.0) {
        return *this;
    }
    const double threshold = slope_factor * average_slope;

    // entries_ ascend in speedup; scan marginal slopes between consecutive
    // rows and cut at the first edge that is both past the protected region
    // and steeper than the threshold. Power need not be monotone over the
    // raw grid, but a cheaper faster row yields a negative (never steep)
    // slope, so only genuinely expensive speedup triggers the cut.
    size_t cut = entries_.size();
    for (size_t i = 1; i < entries_.size(); ++i) {
        const ProfileEntry& prev = entries_[i - 1];
        const ProfileEntry& row = entries_[i];
        if (prev.speedup < protect_below_speedup) {
            continue;
        }
        const double ds = row.speedup - prev.speedup;
        if (ds <= 0.0) {
            continue;
        }
        const double slope = (row.power_mw.value() - prev.power_mw.value()) / ds;
        if (slope > threshold) {
            cut = i;
            break;
        }
    }
    if (cut >= entries_.size()) {
        return *this;
    }
    std::vector<ProfileEntry> kept(entries_.begin(),
                                   entries_.begin() + static_cast<long>(cut));
    return ProfileTable(app_name_, std::move(kept), base_speed_gips_);
}

std::string
ProfileTable::ToCsv() const
{
    // Heterogeneous tables carry two extra key columns; tables without a
    // LITTLE level keep the historical 5-column format byte-for-byte.
    bool het = false;
    for (const ProfileEntry& entry : entries_) {
        het = het || entry.config.controls_little();
    }
    if (het) {
        CsvWriter writer({"cpu_level", "bw_level", "gpu_level", "little_level",
                          "placement", "speedup", "power_mw"});
        for (const ProfileEntry& entry : entries_) {
            writer.AddRow({StrFormat("%d", entry.config.cpu_level),
                           StrFormat("%d", entry.config.bw_level),
                           StrFormat("%d", entry.config.gpu_level),
                           StrFormat("%d", entry.config.little_level),
                           StrFormat("%d", entry.config.placement),
                           StrFormat("%.9g", entry.speedup),
                           StrFormat("%.9g", entry.power_mw.value())});
        }
        return writer.ToString();
    }
    CsvWriter writer({"cpu_level", "bw_level", "gpu_level", "speedup", "power_mw"});
    for (const ProfileEntry& entry : entries_) {
        writer.AddRow({StrFormat("%d", entry.config.cpu_level),
                       StrFormat("%d", entry.config.bw_level),
                       StrFormat("%d", entry.config.gpu_level),
                       StrFormat("%.9g", entry.speedup),
                       StrFormat("%.9g", entry.power_mw.value())});
    }
    return writer.ToString();
}

std::string
ProfileTable::ToString() const
{
    std::ostringstream out;
    out << StrFormat("Profile table for %s (base speed %.4f GIPS, %zu configs)\n",
                     app_name_.c_str(), base_speed_gips_, entries_.size());
    out << StrFormat("  %-4s %-14s %10s %12s\n", "#", "config", "speedup",
                     "power (mW)");
    for (size_t i = 0; i < entries_.size(); ++i) {
        const ProfileEntry& entry = entries_[i];
        out << StrFormat("  %-4zu %-14s %10.4f %12.2f\n", i + 1,
                         entry.config.ToString().c_str(), entry.speedup,
                         entry.power_mw.value());
    }
    return out.str();
}

}  // namespace aeo
