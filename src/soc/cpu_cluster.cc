#include "soc/cpu_cluster.h"

#include <utility>

#include "common/logging.h"

namespace aeo {

CpuCluster::CpuCluster(FrequencyTable table, int num_cores)
    : LevelDomain(table.size()),
      table_(std::move(table)),
      num_cores_(num_cores),
      online_cores_(num_cores)
{
    AEO_ASSERT(num_cores_ >= 1, "cluster needs at least one core");
}

void
CpuCluster::SetOnlineCores(int cores)
{
    AEO_ASSERT(cores >= 1 && cores <= num_cores_, "online cores %d out of [1, %d]",
               cores, num_cores_);
    if (cores == online_cores_) {
        return;
    }
    NotifyPreChange();
    online_cores_ = cores;
    NotifyPostChange();
}

}  // namespace aeo
