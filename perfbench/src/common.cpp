#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::vector<double> values(const Samples& s) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const Sample& x : s) out.push_back(x.v);
  return out;
}

double robust_quantile(Samples s, double q) {
  std::sort(s.begin(), s.end(),
            [](const Sample& a, const Sample& b) { return a.t < b.t; });
  // Smallest group that leaves 10 samples beyond q.
  const auto group = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q)));
  const std::size_t groups = std::max<std::size_t>(1, s.size() / group);
  std::vector<double> per_group;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<double> v;
    for (std::size_t i = g * s.size() / groups;
         i < (g + 1) * s.size() / groups; ++i)
      v.push_back(s[i].v);
    per_group.push_back(quantile(v, q));
  }
  return quantile(per_group, 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// --- Tracer -----------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    buf = new Buffer();  // Deliberately leaked: outlives every thread.
    const std::lock_guard<std::mutex> lock(mu_);
    buf->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(buf);
  }
  return *buf;
}

std::int32_t Tracer::open(const char* name, std::uint64_t request) {
  if (!enabled()) return -1;
  Buffer& b = local();
  Span s;
  s.name = name;
  s.request = request;
  s.thread = b.thread;
  s.phase = phase_.load(std::memory_order_relaxed);
  s.parent = b.stack.empty() ? -1 : b.stack.back();
  const auto index = static_cast<std::int32_t>(b.spans.size());
  b.stack.push_back(index);
  s.start_ns = now_ns();
  b.spans.push_back(s);
  return index;
}

void Tracer::close(std::int32_t index, std::uint64_t items) {
  if (index < 0) return;
  const std::int64_t end = now_ns();
  Buffer& b = local();
  Span& s = b.spans[static_cast<std::size_t>(index)];
  s.end_ns = end;
  s.items = items;
  if (!b.stack.empty() && b.stack.back() == index) b.stack.pop_back();
}

std::vector<Span> Tracer::collect() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (Buffer* b : buffers_) {
    const auto base = static_cast<std::int32_t>(out.size());
    for (Span s : b->spans) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

double SpanStats::total_ns() const {
  double s = 0.0;
  for (double x : self_ns) s += x;
  return s;
}

std::map<std::pair<int, std::string>, SpanStats> self_times(
    const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::pair<int, std::string>, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0) continue;  // Never closed (run aborted mid-call).
    SpanStats& st = out[{s.phase, s.name}];
    st.self_ns.push_back(
        std::max(0.0, static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]));
    st.items += s.items;
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
        << ",\"request\":" << s.request << ",\"items\":" << s.items
        << ",\"phase\":" << static_cast<int>(s.phase) << "}\n";
  }
  return static_cast<bool>(out);
}

// --- JSON -------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i) out += ", ";
    out += json_string(items_[i].name) + ": {\"value\": " +
           json_number(items_[i].value) +
           ", \"unit\": " + json_string(items_[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench
