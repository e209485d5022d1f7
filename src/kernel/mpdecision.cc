#include "kernel/mpdecision.h"

#include "common/logging.h"

namespace aeo {

Mpdecision::Mpdecision(Simulator* sim, CpuCluster* cluster,
                       const CpuLoadMeter* load_meter)
    : sim_(sim), timer_(sim, [this] { Sample(); })
{
    AEO_ASSERT(sim_ != nullptr && cluster != nullptr && load_meter != nullptr,
               "mpdecision wired with null dependency");
    Domain domain;
    domain.cluster = cluster;
    domain.load_meter = load_meter;
    domains_.push_back(std::move(domain));
}

void
Mpdecision::AddCluster(CpuCluster* cluster, const CpuLoadMeter* load_meter)
{
    AEO_ASSERT(cluster != nullptr && load_meter != nullptr,
               "mpdecision domain wired with null dependency");
    AEO_ASSERT(!running(), "AddCluster() after Start()");
    Domain domain;
    domain.cluster = cluster;
    domain.load_meter = load_meter;
    domains_.push_back(std::move(domain));
}

void
Mpdecision::Start()
{
    for (Domain& domain : domains_) {
        domain.window.emplace(domain.load_meter);
    }
    timer_.Start(kSamplingPeriod);
}

void
Mpdecision::Stop()
{
    timer_.Stop();
    for (Domain& domain : domains_) {
        domain.window.reset();
        if (domain.cluster->online_cores() != domain.cluster->num_cores()) {
            domain.cluster->SetOnlineCores(domain.cluster->num_cores());
            ++transition_count_;
        }
    }
}

void
Mpdecision::Sample()
{
    if (sync_hook_) {
        sync_hook_();
    }
    for (Domain& domain : domains_) {
        SampleDomain(&domain);
    }
}

void
Mpdecision::SampleDomain(Domain* domain)
{
    CpuCluster* cluster = domain->cluster;
    const int online = cluster->online_cores();
    const double load = domain->window->SampleLoad(online);

    if (load > kOnlineThreshold && online < cluster->num_cores()) {
        cluster->SetOnlineCores(online + 1);
        ++transition_count_;
    } else if (load < kOfflineThreshold && online > kMinOnline) {
        cluster->SetOnlineCores(online - 1);
        ++transition_count_;
    }
}

}  // namespace aeo
