#include "control/phase_detector.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace aeo {

int
PhaseDetector::Classify(double measurement)
{
    AEO_ASSERT(measurement >= 0.0, "negative measurement");
    ++samples_;

    // Find the nearest phase by relative distance.
    int best = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < phases_.size(); ++i) {
        const double scale = std::max(phases_[i].centroid, 1e-12);
        const double dist = std::fabs(measurement - phases_[i].centroid) / scale;
        if (dist < best_dist) {
            best = static_cast<int>(i);
            best_dist = dist;
        }
    }

    if (best >= 0 && best_dist <= kMatchTolerance) {
        PhaseInfo& phase = phases_[static_cast<size_t>(best)];
        phase.centroid += kCentroidAlpha * (measurement - phase.centroid);
        ++phase.hits;
        phase.last_seen = samples_;
    } else if (static_cast<int>(phases_.size()) < kMaxPhases) {
        best = static_cast<int>(phases_.size());
        phases_.push_back(PhaseInfo{measurement, 1, samples_});
    } else {
        // Replace the least-recently-seen phase.
        size_t stalest = 0;
        for (size_t i = 1; i < phases_.size(); ++i) {
            if (phases_[i].last_seen < phases_[stalest].last_seen) {
                stalest = i;
            }
        }
        phases_[stalest] = PhaseInfo{measurement, 1, samples_};
        best = static_cast<int>(stalest);
    }

    if (best != current_ && current_ != -1) {
        ++switches_;
    }
    current_ = best;
    return best;
}

}  // namespace aeo
