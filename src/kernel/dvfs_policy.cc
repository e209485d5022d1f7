#include "kernel/dvfs_policy.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace aeo {

DvfsPolicy::DvfsPolicy(Simulator* sim, LevelDomain* domain, Sysfs* sysfs,
                       std::string sysfs_root, const DvfsSysfsNames& names,
                       std::span<const DvfsGovernorEntry> governors)
    : sim_(sim),
      domain_(domain),
      sysfs_(sysfs),
      sysfs_root_(std::move(sysfs_root)),
      names_(&names),
      governors_(governors)
{
    AEO_ASSERT(sim_ != nullptr && domain_ != nullptr && sysfs_ != nullptr,
               "DVFS policy '%s' wired with null dependency", sysfs_root_.c_str());
    max_level_limit_ = domain_->max_level();
    thermal_cap_level_ = domain_->max_level();
    RegisterSysfsFiles();
}

DvfsPolicy::~DvfsPolicy()
{
    if (governor_) {
        governor_->Stop();
    }
}

bool
DvfsPolicy::SetGovernor(const std::string& name)
{
    const auto it = std::find_if(
        governors_.begin(), governors_.end(),
        [&name](const DvfsGovernorEntry& entry) { return name == entry.name; });
    if (it == governors_.end()) {
        return false;
    }
    if (governor_) {
        governor_->Stop();
        governor_.reset();
    }
    governor_ = it->make(this);
    governor_->Start();
    return true;
}

std::string
DvfsPolicy::governor_name() const
{
    return governor_ ? governor_->name() : "none";
}

std::string
DvfsPolicy::AvailableGovernors() const
{
    std::string names;
    for (const DvfsGovernorEntry& entry : governors_) {
        if (!names.empty()) {
            names += ' ';
        }
        names += entry.name;
    }
    return names;
}

void
DvfsPolicy::RequestLevel(int level)
{
    const int ceiling = effective_max_level();
    const int floor = std::min(min_level_limit_, ceiling);
    domain_->SetLevel(std::clamp(level, floor, ceiling));
}

int
DvfsPolicy::effective_max_level() const
{
    return std::min(max_level_limit_, thermal_cap_level_);
}

void
DvfsPolicy::SetThermalCapLevel(int level)
{
    AEO_ASSERT(level >= 0 && level < domain_->num_levels(),
               "bad thermal cap level %d", level);
    thermal_cap_level_ = level;
    // Re-clamp the current operating point under the new ceiling.
    RequestLevel(domain_->level());
}

void
DvfsPolicy::SetLevelLimits(int min_level, int max_level)
{
    AEO_ASSERT(min_level >= 0 && max_level < domain_->num_levels() &&
                   min_level <= max_level,
               "bad level limits [%d, %d]", min_level, max_level);
    min_level_limit_ = min_level;
    max_level_limit_ = max_level;
    // Re-clamp the current operating point into the new limits.
    RequestLevel(domain_->level());
}

SysfsHandle
DvfsPolicy::Open(const char* DvfsSysfsNames::*file) const
{
    const char* name = names_->*file;
    AEO_ASSERT(name != nullptr, "policy directory '%s' has no such file",
               sysfs_root_.c_str());
    return sysfs_->Open(StrFormat("%s/%s", sysfs_root_.c_str(), name));
}

long long
DvfsPolicy::RoundedValue(int level) const
{
    return static_cast<long long>(ValueOfLevel(level) + 0.5);
}

std::string
DvfsPolicy::FormatLevel(int level) const
{
    return StrFormat("%lld", RoundedValue(level));
}

bool
DvfsPolicy::ParseValue(const std::string& text, long long* value)
{
    return ParseInt64(text, value) && *value > 0;
}

void
DvfsPolicy::RegisterSysfsFiles()
{
    const DvfsSysfsNames& names = *names_;
    // One path buffer for the whole directory: a temporary path per file
    // would cost a heap allocation per file on every Device build.
    std::string path = sysfs_root_;
    const size_t root_size = path.size();
    const auto add = [&](const char* name, SysfsFile file) {
        if (name == nullptr) {
            return;
        }
        path.resize(root_size);
        path += '/';
        path += name;
        sysfs_->Register(path, std::move(file));
    };

    add(names.governor,
        SysfsFile{
            [this] { return governor_name(); },
            [this](const std::string& value) { return SetGovernor(Trim(value)); },
        });

    add(names.available_governors,
        SysfsFile{[this] { return AvailableGovernors(); }, nullptr});

    add(names.cur_freq,
        SysfsFile{[this] { return FormatLevel(domain_->level()); }, nullptr});

    add(names.available_frequencies,
        SysfsFile{[this] {
                      std::vector<std::string> fields;
                      for (int level = 0; level < domain_->num_levels(); ++level) {
                          fields.push_back(FormatLevel(level));
                      }
                      return Join(fields, " ");
                  },
                  nullptr});

    add(names.min_freq,
        SysfsFile{[this] { return FormatLevel(min_level_limit_); },
                  [this](const std::string& value) {
                      long long parsed = 0;
                      if (!ParseValue(value, &parsed)) {
                          return false;
                      }
                      const int level = LevelOfValue(parsed);
                      if (level > max_level_limit_) {
                          return false;
                      }
                      SetLevelLimits(level, max_level_limit_);
                      return true;
                  }});

    // Reads report the *effective* limit — msm_thermal's clamp shows
    // through here, which is how a watchful userspace can detect it.
    add(names.max_freq,
        SysfsFile{[this] { return FormatLevel(effective_max_level()); },
                  [this](const std::string& value) {
                      long long parsed = 0;
                      if (!ParseValue(value, &parsed)) {
                          return false;
                      }
                      const int level = LevelOfValue(parsed);
                      if (level < min_level_limit_) {
                          return false;
                      }
                      SetLevelLimits(min_level_limit_, level);
                      return true;
                  }});

    const bool needs_userspace = names.set_freq_needs_userspace;
    add(names.set_freq,
        SysfsFile{
            [this, needs_userspace] {
                return !needs_userspace || governor_name() == "userspace"
                           ? FormatLevel(domain_->level())
                           : std::string("<unsupported>");
            },
            [this](const std::string& value) {
                if (!governor_) {
                    return false;
                }
                long long parsed = 0;
                if (!ParseValue(value, &parsed)) {
                    return false;
                }
                return governor_->SetTargetLevel(LevelOfValue(parsed));
            },
        });
}

}  // namespace aeo
