#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (steady_clock).
int64_t NowNs();

/// One timed interval at a benchmark boundary. `name` is "<layer>.<what>"
/// (a string literal); `parent` indexes the span that was open on the same
/// thread when this one began (-1 at the top); `request` is the client
/// operation the thread was serving (0 on threads serving none, such as
/// the server's own threads).
struct Span {
  const char* name = nullptr;
  int32_t parent = -1;
  uint32_t thread = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Process-wide in-memory span recorder. Each thread appends to its own
/// buffer; the recorder takes a lock only when a thread records its first
/// span of a tracing phase. Start and Stop must be called while no thread
/// is inside a span (the workloads call them before their clients start
/// and after they have joined).
class Tracer {
 public:
  static Tracer& Get();

  /// Discards earlier spans and starts recording.
  void Start();
  void Stop();
  bool on() const { return on_.load(std::memory_order_relaxed); }

  /// Records a span that has no children (the Env's file operations).
  void Leaf(const char* name, int64_t start_ns, int64_t end_ns);

  /// Sets the calling thread's current request id (see Span::request).
  static void SetRequest(uint64_t request);
  static uint64_t NewRequestId();

  /// Every recorded span, one vector per thread. Call after Stop.
  std::vector<std::vector<Span>> Collect() const;

  /// One thread's spans; written only by that thread.
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;  // indexes of the spans still open
  };

 private:
  friend class SpanScope;
  Buffer* Local();

  std::atomic<bool> on_{false};
  std::atomic<uint64_t> epoch_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records one span around its scope when the tracer is on.
class SpanScope {
 public:
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  int32_t index_ = -1;
};

/// Self time of spans aggregated by span name and by layer.
struct TraceReport {
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  int64_t spans = 0;
  std::map<std::string, Totals> by_name;
  /// Top-level span name (a client operation such as "op.run") -> number
  /// of such spans and their summed duration.
  std::map<std::string, Totals> roots;
  /// (top-level span name, layer) -> summed self time of every span in
  /// those trees. Spans on threads with no top-level operation open (the
  /// server's threads) are filed under root "thread".
  std::map<std::pair<std::string, std::string>, int64_t> layer_self_ns;
};

TraceReport Summarize(const std::vector<std::vector<Span>>& threads);

/// Writes up to `max_spans` spans as JSON lines; returns how many it wrote.
int64_t WriteSpans(const std::vector<std::vector<Span>>& threads,
                   const std::string& path, int64_t max_spans);

/// The layer a span name belongs to: its text before the first '.'.
std::string LayerOf(const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
