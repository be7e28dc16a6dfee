#include "span_trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

struct LocalState {
  Tracer::Buffer* buffer = nullptr;
  uint64_t epoch = 0;
  uint64_t request = 0;
};

thread_local LocalState tls;
std::atomic<uint64_t> next_request{1};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
  on_.store(true, std::memory_order_release);
}

void Tracer::Stop() { on_.store(false, std::memory_order_release); }

Tracer::Buffer* Tracer::Local() {
  uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (tls.buffer == nullptr || tls.epoch != epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buffer = std::make_unique<Buffer>();
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    buffer->spans.reserve(4096);
    tls.buffer = buffer.get();
    tls.epoch = epoch;
    buffers_.push_back(std::move(buffer));
  }
  return tls.buffer;
}

void Tracer::Leaf(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!on()) return;
  Buffer* b = Local();
  Span span;
  span.name = name;
  span.parent = b->open.empty() ? -1 : b->open.back();
  span.thread = b->thread;
  span.request = tls.request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  b->spans.push_back(span);
}

void Tracer::SetRequest(uint64_t request) { tls.request = request; }

uint64_t Tracer::NewRequestId() {
  return next_request.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::vector<Span>> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Span>> out;
  out.reserve(buffers_.size());
  for (const auto& b : buffers_) out.push_back(b->spans);
  return out;
}

SpanScope::SpanScope(const char* name) {
  Tracer& t = Tracer::Get();
  if (!t.on()) return;
  buffer_ = t.Local();
  Span span;
  span.name = name;
  span.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  span.thread = buffer_->thread;
  span.request = tls.request;
  span.start_ns = NowNs();
  index_ = static_cast<int32_t>(buffer_->spans.size());
  buffer_->spans.push_back(span);
  buffer_->open.push_back(index_);
}

SpanScope::~SpanScope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = NowNs();
  buffer_->open.pop_back();
}

std::string LayerOf(const char* name) {
  std::string s(name);
  return s.substr(0, s.find('.'));
}

TraceReport Summarize(const std::vector<std::vector<Span>>& threads) {
  TraceReport report;
  for (const std::vector<Span>& spans : threads) {
    // Parents precede their children, so one forward pass resolves each
    // span's root and one backward pass its children's time.
    std::vector<int64_t> child_ns(spans.size(), 0);
    std::vector<int32_t> root(spans.size(), -1);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      root[i] = s.parent < 0 ? static_cast<int32_t>(i) : root[s.parent];
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t total = s.end_ns - s.start_ns;
      const int64_t self = total - child_ns[i];
      TraceReport::Totals& by_name = report.by_name[s.name];
      ++by_name.count;
      by_name.total_ns += total;
      by_name.self_ns += self;
      const Span& r = spans[root[i]];
      // A top-level span that is itself a device operation ran on a
      // thread serving no client operation.
      std::string root_name =
          LayerOf(r.name) == "op" ? std::string(r.name) : "thread";
      if (s.parent < 0 && root_name != "thread") {
        ++report.roots[root_name].count;
        report.roots[root_name].total_ns += total;
      }
      report.layer_self_ns[{root_name, LayerOf(s.name)}] += self;
      ++report.spans;
    }
  }
  return report;
}

int64_t WriteSpans(const std::vector<std::vector<Span>>& threads,
                   const std::string& path, int64_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  int64_t written = 0;
  for (const std::vector<Span>& spans : threads) {
    for (size_t i = 0; i < spans.size() && written < max_spans; ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%u,\"index\":%zu,"
                   "\"parent\":%d,\"request\":%llu,\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   s.name, s.thread, i, s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

}  // namespace perfbench
