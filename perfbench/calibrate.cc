#include "calibrate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

/** Keeps the kernel's result observable. */
volatile double g_calibration_sink = 0.0;

/**
 * The work the simulator does most, in miniature: a binary min-heap of
 * timestamps re-armed in place (the event queue) and one floating-point
 * update per pop (the power meter). Fixed size, no allocation after start.
 */
double
Kernel()
{
    constexpr size_t kHeap = 512;
    constexpr int kPops = 100000;
    std::vector<uint64_t> heap(kHeap);
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (uint64_t& key : heap) {
        key = next() >> 40;
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    double sum = 0.0;
    for (int i = 0; i < kPops; ++i) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const uint64_t now = heap.back();
        heap.back() = now + 1 + (next() & 0xfff);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
        sum += std::sqrt(static_cast<double>(now & 0xffff) + 1.0);
    }
    return sum;
}

}  // namespace

double
SetUpCalibrationSeconds()
{
    double best = 0.0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        const double start = NowSeconds();
        for (int round = 0; round < 10; ++round) {
            std::map<std::string, std::vector<double>> table;
            for (int i = 0; i < 1000; ++i) {
                table["/sys/devices/system/cpu/cpu" + std::to_string(i)].assign(
                    8, static_cast<double>(i));
            }
            g_calibration_sink = g_calibration_sink + table.begin()->second[0];
        }
        const double elapsed = NowSeconds() - start;
        best = attempt == 0 ? elapsed : std::min(best, elapsed);
    }
    return best;
}

double
CalibrationSeconds(int threads)
{
    const size_t n = static_cast<size_t>(std::max(threads, 1));
    double best = 0.0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        std::vector<double> seconds(n);
        std::vector<double> sums(n);
        std::vector<std::thread> pool;
        for (size_t t = 0; t < n; ++t) {
            pool.emplace_back([&seconds, &sums, t] {
                const double start = NowSeconds();
                sums[t] = Kernel();
                seconds[t] = NowSeconds() - start;
            });
        }
        double mean = 0.0;
        for (size_t t = 0; t < n; ++t) {
            pool[t].join();
            mean += seconds[t] / static_cast<double>(n);
            g_calibration_sink = g_calibration_sink + sums[t];
        }
        best = attempt == 0 ? mean : std::min(best, mean);
    }
    return best;
}

}  // namespace perfbench
