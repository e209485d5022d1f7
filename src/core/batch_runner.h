/**
 * @file
 * The deterministic parallel batch-execution layer. The paper's entire
 * evaluation (§V) is a grid of independent device simulations — offline
 * profiling alone is up to 18×13 configurations × 3 runs — and each run
 * constructs its own Device from a seed, so runs share no mutable state.
 * BatchRunner fans a grid of such self-contained jobs across plain threads
 * and returns the results **by job index**:
 *
 *  - with jobs == 1 no thread machinery is touched at all — the jobs run
 *    inline, in order, on the calling thread, reproducing the historical
 *    serial path byte-for-byte;
 *  - with jobs == N the jobs run concurrently, but because every job is
 *    seeded and self-contained, and each result lands in its index's slot,
 *    the output vector is bit-identical to jobs == 1 regardless of worker
 *    count or completion order.
 *
 * The determinism contract therefore is: parallelism changes wall-clock
 * time and nothing else. A ctest (batch_determinism_test) asserts it.
 *
 * Header-only, and it includes only standard headers, so tools that link
 * only aeo_common (aeo_lint) fan out through it too.
 */
#ifndef AEO_CORE_BATCH_RUNNER_H_
#define AEO_CORE_BATCH_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace aeo {

/** Fan-out tuning for the batch layer. */
struct BatchOptions {
    /** Worker count; <= 0 means hardware_concurrency(). 1 = inline/serial. */
    int jobs = 0;

    bool operator==(const BatchOptions&) const = default;
};

/** @p options.jobs with the <=0 default resolved to the hardware. */
inline int
ResolveJobs(const BatchOptions& options)
{
    if (options.jobs > 0) {
        return options.jobs;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/** Runs grids of self-contained jobs with results placed by index. */
class BatchRunner {
  public:
    explicit BatchRunner(BatchOptions options = {}) : jobs_(ResolveJobs(options)) {}

    /**
     * Indexed parallel-for: runs @p fn(0) … fn(count - 1) and returns the
     * results by index, so the output is bit-identical at any worker count.
     * The calling thread is one of the workers. The serial fraction is a
     * single atomic fetch_add per job: the coordination cost does not grow
     * with the grid.
     *
     * @p fn must be safe to invoke concurrently from multiple threads for
     * distinct indices. The first exception any invocation throws stops
     * the hand-out of further indices; it is rethrown once the jobs
     * already running have finished.
     */
    template <typename R, typename Fn>
    std::vector<R>
    RunIndexed(size_t count, Fn&& fn) const
    {
        std::vector<R> results;
        results.reserve(count);
        if (jobs_ == 1 || count <= 1) {
            // The serial path: inline, in order, no threads.
            for (size_t i = 0; i < count; ++i) {
                results.push_back(fn(i));
            }
            return results;
        }
        std::vector<std::optional<R>> slots(count);
        std::atomic<size_t> next{0};
        std::mutex error_mutex;
        std::exception_ptr error;
        const auto work = [&] {
            for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
                try {
                    slots[i].emplace(fn(i));
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error) {
                        error = std::current_exception();
                    }
                    next.store(count);
                    return;
                }
            }
        };
        {
            const size_t workers = std::min(static_cast<size_t>(jobs_), count);
            std::vector<std::jthread> helpers;
            helpers.reserve(workers - 1);
            for (size_t w = 1; w < workers; ++w) {
                helpers.emplace_back(work);
            }
            work();
        }  // joins the helpers
        if (error) {
            std::rethrow_exception(error);
        }
        for (auto& slot : slots) {
            results.push_back(std::move(*slot));
        }
        return results;
    }

  private:
    int jobs_;
};

}  // namespace aeo

#endif  // AEO_CORE_BATCH_RUNNER_H_
