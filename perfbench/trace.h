/**
 * @file
 * The benchmark's span recorder. Spans are recorded from the benchmark's own
 * code around each public call into a layer — job → stage (stock run,
 * profile, controller run, campaign) → probe (device build, device run) —
 * kept in memory, and written out once at exit as Chrome trace-event JSON
 * (opens in chrome://tracing or the Perfetto UI). A null Tracer* is the
 * untraced run: ScopedSpan then does nothing at all.
 */
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Host monotonic time, seconds (steady_clock). */
double NowSeconds();

/** Span handle; 0 means "no span" (a root's parent, or tracing off). */
using SpanId = uint32_t;
inline constexpr SpanId kNoSpan = 0;

/** One recorded interval. */
struct Span {
    /** Static string naming the layer call ("stock_run", "device.build"…). */
    const char* name = "";
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    /** Index of the job the span belongs to; every span of a job shares it. */
    int job = -1;
    /** Traced pass the span was recorded in. */
    int pass = 0;
    /** Small per-thread index (0 = first thread seen). */
    int thread = 0;
    double start_s = 0.0;
    double end_s = 0.0;

    double seconds() const { return end_s - start_s; }
};

/** Thread-safe, append-only span store. */
class Tracer {
  public:
    Tracer() = default;
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Tags subsequently recorded spans with traced pass @p pass. */
    void SetPass(int pass);

    SpanId Begin(const char* name, int job, SpanId parent);
    void End(SpanId id);

    /** Every finished span. */
    std::vector<Span> spans() const;

    /** Durations of the finished spans named @p name, seconds. */
    std::vector<double> Durations(const std::string& name) const;

    /** Writes every span as Chrome trace-event JSON; false on I/O error. */
    bool WriteChromeTrace(const std::string& path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    int pass_ = 0;
};

/** RAII span; a no-op when the tracer is null. */
class ScopedSpan {
  public:
    ScopedSpan(Tracer* tracer, const char* name, int job, SpanId parent)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->Begin(name, job, parent) : kNoSpan)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr) {
            tracer_->End(id_);
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    SpanId id() const { return id_; }

  private:
    Tracer* tracer_;
    SpanId id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
