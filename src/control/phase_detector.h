/**
 * @file
 * Online application-phase detection — the §V-B problem statement:
 *
 *   "how do we define and identify application phases? ... Phase
 *    prediction, as proposed in [23], might help, but is only one step
 *    towards addressing these problems."
 *
 * The detector consumes the controller's own per-cycle GIPS measurements
 * (no extra instrumentation) and maintains K online clusters of measured
 * rates. A cycle is assigned to the nearest cluster within a relative
 * tolerance; otherwise it seeds or replaces a cluster. Stable cluster ids
 * give a controller the hook to keep per-phase targets or tables (the
 * paper's [23] keeps per-phase history tables the same way).
 */
#ifndef AEO_CONTROL_PHASE_DETECTOR_H_
#define AEO_CONTROL_PHASE_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aeo {

/** One tracked phase. */
struct PhaseInfo {
    /** Centroid of the phase's measured rate. */
    double centroid = 0.0;
    /** Samples assigned so far. */
    uint64_t hits = 0;
    /** Index of the last sample assigned. */
    uint64_t last_seen = 0;
};

/**
 * Online clustering of a one-dimensional measurement stream. When all
 * kMaxPhases slots are taken and nothing matches, the least-recently-seen
 * phase is evicted.
 */
class PhaseDetector {
  public:
    /** Maximum number of tracked phases. */
    static constexpr int kMaxPhases = 4;
    /** A sample within this relative distance joins an existing phase. */
    static constexpr double kMatchTolerance = 0.25;
    /** EWMA weight of a new sample on its phase centroid. */
    static constexpr double kCentroidAlpha = 0.2;
    static_assert(kMaxPhases >= 1, "need at least one phase slot");
    static_assert(kMatchTolerance > 0.0, "tolerance must be positive");
    static_assert(kCentroidAlpha > 0.0 && kCentroidAlpha <= 1.0,
                  "alpha out of (0, 1]");

    /**
     * Classifies @p measurement, updating the matched (or newly created)
     * phase.
     *
     * @return the phase id (stable across samples while the phase lives).
     */
    int Classify(double measurement);

    /** Currently tracked phases. */
    const std::vector<PhaseInfo>& phases() const { return phases_; }

    /** Id of the most recently matched phase (-1 before any sample). */
    int current_phase() const { return current_; }

    /** Number of phase *switches* observed (assignments differing from the
     * previous sample's phase). */
    uint64_t switch_count() const { return switches_; }

    /** Total samples classified. */
    uint64_t sample_count() const { return samples_; }

  private:
    std::vector<PhaseInfo> phases_;
    int current_ = -1;
    uint64_t switches_ = 0;
    uint64_t samples_ = 0;
};

}  // namespace aeo

#endif  // AEO_CONTROL_PHASE_DETECTOR_H_
