/**
 * @file
 * LoadAvg (kernel/loadavg.h) folds only at LOAD_FREQ instants, like
 * Linux's calc_global_load(), so its value is a function of the run, not of
 * how the device happened to split the run into integration segments:
 * cutting any constant-rate segment at arbitrary points leaves value() the
 * same to the last bit. A recompute, a governor sample or a sysfs read may
 * end a segment anywhere, so without this law /proc/loadavg would depend
 * on who looked at the device when.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "kernel/loadavg.h"

namespace aeo {
namespace {

/** One constant-rate segment of a run. */
struct Segment {
    double runnable;
    SimTime duration;
    /** Resident pressure from this segment on (a background switch). */
    double resident;
};

/** A random run of up to 40 segments, from 1 µs to 12 s each. */
std::vector<Segment>
RandomRun(Rng& rng)
{
    std::vector<Segment> run(static_cast<size_t>(rng.UniformInt(1, 40)));
    for (Segment& segment : run) {
        segment.runnable = rng.Uniform(0.0, 4.0);
        segment.duration = rng.UniformInt(0, 3) == 0
                               ? SimTime::Micros(rng.UniformInt(1, 5000))
                               : SimTime::Micros(rng.UniformInt(1, 12'000'000));
        segment.resident = rng.UniformInt(0, 9) == 0 ? rng.Uniform(5.0, 8.0) : -1.0;
    }
    return run;
}

/** Advances @p load over @p run, cutting each segment into @p pieces
 * random parts (1 = whole). */
void
Replay(LoadAvg* load, const std::vector<Segment>& run, Rng& cuts, int pieces)
{
    for (const Segment& segment : run) {
        if (segment.resident >= 0.0) {
            load->set_resident_tasks(segment.resident);
        }
        std::vector<int64_t> points = {0, segment.duration.micros()};
        for (int i = 1; i < pieces; ++i) {
            points.push_back(cuts.UniformInt(0, segment.duration.micros()));
        }
        std::sort(points.begin(), points.end());
        for (size_t i = 1; i < points.size(); ++i) {
            load->Advance(segment.runnable,
                          SimTime::Micros(points[i] - points[i - 1]));
        }
    }
}

TEST(LoadAvgSplitPropertyTest, SplittingSegmentsLeavesTheValueBitIdentical)
{
    Rng runs(2017);
    Rng cuts(31);
    for (int trial = 0; trial < 500; ++trial) {
        const std::vector<Segment> run = RandomRun(runs);
        LoadAvg whole(6.0);
        Replay(&whole, run, cuts, 1);
        for (const int pieces : {2, 3, 17}) {
            LoadAvg split(6.0);
            Replay(&split, run, cuts, pieces);
            EXPECT_EQ(std::bit_cast<uint64_t>(split.value()),
                      std::bit_cast<uint64_t>(whole.value()))
                << "trial " << trial << ", " << pieces << " pieces: "
                << split.value() << " vs " << whole.value();
        }
    }
}

}  // namespace
}  // namespace aeo
