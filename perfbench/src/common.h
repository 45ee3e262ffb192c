// Shared pieces of the rating-path benchmark: clocks, sample summaries,
// the in-memory span recorder of traced runs, process memory, and a
// minimal JSON writer for the result line.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted in place).
[[nodiscard]] double quantile(std::vector<double>& v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

/// One timing sample and when it was taken (seconds on the steady clock).
struct Sample {
  double t = 0.0;
  double v = 0.0;
};
using Samples = std::vector<Sample>;
[[nodiscard]] inline Sample sample_at(Clock::time_point t, double v) {
  return {std::chrono::duration<double>(t.time_since_epoch()).count(), v};
}
[[nodiscard]] std::vector<double> values(const Samples& s);
/// The q-quantile of a run's samples, made robust to a transient stall:
/// the samples are split in time order into as many equal groups as leave
/// at least 10 samples beyond q in each (>= 1000 samples per group for
/// p99, >= 100 for p90, >= 20 for p50), and the median of the groups'
/// q-quantiles is returned.
[[nodiscard]] double robust_quantile(Samples s, double q);

/// Peak resident set of this process (getrusage ru_maxrss), in MiB.
[[nodiscard]] double peak_rss_mb();

// --- Spans ------------------------------------------------------------------

/// One traced call: name, interval, the enclosing span on the same thread
/// (-1 for a root), the request it belongs to, and how many items the call
/// processed (ratings in a batch, cells in a row walk) so per-item costs
/// can be derived from the same boundary.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t thread = 0;
  std::uint64_t request = 0;
  std::uint64_t items = 1;
  /// 0 = recorded around the workload's own calls, 1 = layer replay.
  std::uint8_t phase = 0;
};

/// Process-wide span recorder. Recording is off unless enabled; each
/// thread appends to its own buffer, so spans never contend on a lock
/// while a run is timed. Buffers are merged once the run has finished.
class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_phase(std::uint8_t phase) { phase_.store(phase); }

  /// Opens a span on the calling thread; returns its index in the thread
  /// buffer (or -1 when tracing is off).
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index, std::uint64_t items);

  /// Every recorded span, in thread-then-open order, with parents
  /// re-indexed into the merged vector.
  [[nodiscard]] std::vector<Span> collect();

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::int32_t> stack;
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint8_t> phase_{0};
  std::mutex mu_;
  std::vector<Buffer*> buffers_;  // Owned; live until process exit.
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t request = 0)
      : index_(Tracer::get().open(name, request)) {}
  ~ScopedSpan() { Tracer::get().close(index_, items_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_items(std::uint64_t n) { items_ = n; }

 private:
  std::int32_t index_;
  std::uint64_t items_ = 1;
};

/// Per-name aggregate of span self times (duration minus the part covered
/// by child spans), in nanoseconds, and the items the spans processed.
struct SpanStats {
  std::vector<double> self_ns;
  std::uint64_t items = 0;
  [[nodiscard]] double total_ns() const;
};
/// Aggregates spans by (phase, name).
[[nodiscard]] std::map<std::pair<int, std::string>, SpanStats> self_times(
    const std::vector<Span>& spans);
/// Writes spans as JSON lines (name, start, end, parent, thread, request).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// --- Output -----------------------------------------------------------------

/// Ordered metric set of one run: name -> (value, unit).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return std::any_of(items_.begin(), items_.end(),
                       [&](const Item& m) { return m.name == name; });
  }
  /// Adds every metric of `other` this set does not have yet.
  void fill_missing(const Metrics& other) {
    for (const auto& m : other.items_)
      if (!has(m.name)) items_.push_back(m);
  }
  [[nodiscard]] std::string json() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
