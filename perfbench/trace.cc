#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int
ThisThreadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
}

}  // namespace

double
NowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Tracer::SetPass(int pass)
{
    const std::lock_guard<std::mutex> lock(mu_);
    pass_ = pass;
}

SpanId
Tracer::Begin(const char* name, int job, SpanId parent)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.job = job;
    span.thread = ThisThreadIndex();
    span.start_s = NowSeconds();
    span.end_s = -1.0;  // open
    const std::lock_guard<std::mutex> lock(mu_);
    span.pass = pass_;
    span.id = static_cast<SpanId>(spans_.size() + 1);
    spans_.push_back(span);
    return span.id;
}

void
Tracer::End(SpanId id)
{
    const double now = NowSeconds();
    const std::lock_guard<std::mutex> lock(mu_);
    if (id != kNoSpan && id <= spans_.size()) {
        spans_[id - 1].end_s = now;
    }
}

std::vector<Span>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> finished;
    finished.reserve(spans_.size());
    for (const Span& span : spans_) {
        if (span.end_s >= span.start_s) {
            finished.push_back(span);
        }
    }
    return finished;
}

std::vector<double>
Tracer::Durations(const std::string& name) const
{
    std::vector<double> durations;
    for (const Span& span : spans()) {
        if (name == span.name) {
            durations.push_back(span.seconds());
        }
    }
    return durations;
}

bool
Tracer::WriteChromeTrace(const std::string& path) const
{
    const std::vector<Span> all = spans();
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    const double origin = all.empty() ? 0.0 : all.front().start_s;
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < all.size(); ++i) {
        const Span& span = all[i];
        // Complete events ("ph":"X"), one process per traced pass, one
        // track per thread; ids and parents ride along as args.
        std::fprintf(out,
                     "  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                     "\"dur\": %.3f, \"pid\": %d, \"tid\": %d, \"args\": "
                     "{\"id\": %u, \"parent\": %u, \"job\": %d}}%s\n",
                     span.name, (span.start_s - origin) * 1e6,
                     span.seconds() * 1e6, span.pass, span.thread, span.id,
                     span.parent, span.job, i + 1 < all.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

}  // namespace perfbench
