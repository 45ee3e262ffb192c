#include "workloads.h"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "gen.h"
#include "replay.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "service/service.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace svc = p2prep::service;
namespace rpc = p2prep::rpc;
using p2prep::util::Rng;

namespace {

// --- Shared helpers ---------------------------------------------------------

/// Detection thresholds of every workload: the library defaults (T_a 0.8,
/// T_b 0.2, T_N 20, T_R 0.05), the optimized detector, kReset suppression.
p2prep::core::DetectorConfig detector_config() { return {}; }

std::uint64_t tag(char c, std::uint64_t k) {
  return (static_cast<std::uint64_t>(static_cast<unsigned char>(c)) << 48) | k;
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Flushes every regular file under `dir` to disk, so the kernel's
/// writeback of them does not run beside what is timed next.
void flush_files(const std::string& dir) {
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Builds the workload's system `reps` times and keeps the last build;
/// earlier builds are torn down outside the timed interval. Returns the
/// median build time in seconds through `setup_s`.
template <typename Make>
auto timed_setup(int reps, Make&& make, double& setup_s) {
  std::vector<double> times;
  decltype(make()) keep;
  for (int i = 0; i < reps; ++i) {
    keep.reset();
    malloc_trim(0);  // Hand the torn-down build's memory back first.
    const auto t0 = Clock::now();
    keep = make();
    times.push_back(seconds_since(t0));
  }
  setup_s = quantile(times, 0.5);
  return keep;
}

void set_timing(Metrics& m, const std::string& prefix, const Samples& v,
                double hi_q, const std::string& hi_name) {
  m.set(prefix + "_p50_ms", robust_quantile(v, 0.5), "ms");
  m.set(prefix + "_" + hi_name + "_ms", robust_quantile(v, hi_q), "ms");
}

std::string json_counts(
    const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i) out += ", ";
    out += json_string(kv[i].first) + ": " + json_number(kv[i].second);
  }
  return out + "}";
}

/// Tracks planted pairs from their completing rating to the first read
/// that lists both members as colluders.
class VerdictBoard {
 public:
  void expect(const PlantedPair& p) {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_[key(p)].pair = p;
  }
  void completed(const PlantedPair& p, Clock::time_point t) {
    const std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[key(p)];
    e.pair = p;
    if (!e.done) e.done = t;
  }
  /// `flagged` must be sorted ascending.
  void observe(const std::vector<NodeId>& flagged, Clock::time_point t) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& [k, e] : entries_) {
      if (!e.done || e.verdict_ms) continue;
      if (std::binary_search(flagged.begin(), flagged.end(), e.pair.a) &&
          std::binary_search(flagged.begin(), flagged.end(), e.pair.b))
        e.verdict_ms = ms_between(*e.done, t);
    }
  }
  /// Verdict latencies, stamped with their pair's completion time.
  [[nodiscard]] Samples verdicts() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Samples v;
    for (const auto& [k, e] : entries_)
      if (e.verdict_ms) v.push_back(sample_at(*e.done, *e.verdict_ms));
    return v;
  }
  [[nodiscard]] std::size_t missing() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& [k, e] : entries_)
      if (!e.verdict_ms) ++n;
    return n;
  }
  [[nodiscard]] std::vector<NodeId> planted_nodes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<NodeId> v;
    for (const auto& [k, e] : entries_) {
      v.push_back(e.pair.a);
      v.push_back(e.pair.b);
    }
    std::sort(v.begin(), v.end());
    return v;
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    PlantedPair pair;
    std::optional<Clock::time_point> done;
    std::optional<double> verdict_ms;
  };
  static std::uint64_t key(const PlantedPair& p) {
    return (static_cast<std::uint64_t>(p.a) << 32) | p.b;
  }
  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;
};

/// Polls ReputationService::metrics() every ~5 ms: samples the total queue
/// depth and, from the cumulative epoch-latency mean and epoch count,
/// recovers the latency of each epoch that completed in between (epochs
/// completing inside one poll interval share their mean). A reading is
/// used only when two reads 1 ms apart agree, so an epoch caught between
/// bumping its count and recording its latency is skipped until settled.
class Sampler {
 public:
  explicit Sampler(svc::ReputationService& s) : svc_(s) {}
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start() {
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> queue_depths;
  Samples epoch_ms;

 private:
  void loop() {
    bool have_base = false;
    std::uint64_t base_k = 0;
    double base_sum = 0.0;
    while (!stop_.load()) {
      const auto a = svc_.metrics();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const auto b = svc_.metrics();
      queue_depths.push_back(static_cast<double>(b.queue_depth));
      if (a.epochs_completed == b.epochs_completed &&
          a.epoch_latency_ms_mean == b.epoch_latency_ms_mean) {
        const std::uint64_t k = b.epochs_completed;
        const double sum = b.epoch_latency_ms_mean * static_cast<double>(k);
        if (!have_base) {
          have_base = true;
          base_k = k;
          base_sum = sum;
        } else if (k > base_k) {
          const double per = (sum - base_sum) / static_cast<double>(k - base_k);
          if (per > 0.0)
            for (std::uint64_t i = base_k; i < k; ++i)
              epoch_ms.push_back(sample_at(Clock::now(), per));
          base_k = k;
          base_sum = sum;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  svc::ReputationService& svc_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Traced runs switch span recording on and off in 100 ms slices while the
/// workload runs, and compare the workload's main operation cost in the
/// two kinds of slice: trace_overhead_frac = traced / untraced - 1.
class TraceSlicer {
 public:
  explicit TraceSlicer(bool active) : active_(active) {
    if (!active_) return;
    thread_ = std::thread([this] {
      bool on = false;
      while (!stop_.load()) {
        on = !on;
        Tracer::get().set_enabled(on);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      Tracer::get().set_enabled(false);
    });
  }
  ~TraceSlicer() { stop(); }
  TraceSlicer(const TraceSlicer&) = delete;
  TraceSlicer& operator=(const TraceSlicer&) = delete;
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  void add(bool traced, double cost) {
    const std::lock_guard<std::mutex> lock(mu_);
    (traced ? traced_ : plain_).push_back(cost);
  }
  [[nodiscard]] double overhead_frac() {
    const std::lock_guard<std::mutex> lock(mu_);
    const double t = mean(traced_);
    const double p = mean(plain_);
    return p > 0.0 ? t / p - 1.0 : 0.0;
  }

 private:
  bool active_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::mutex mu_;
  std::vector<double> traced_;
  std::vector<double> plain_;
};

/// Per-shard (label "shard k") or global report blocks of a report log, in
/// log order: (label, epoch, text).
struct ReportBlock {
  std::string label;
  std::uint64_t epoch = 0;
  std::string text;
};
std::vector<ReportBlock> split_reports(const std::string& log) {
  std::vector<ReportBlock> out;
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("epoch ", 0) == 0) {
      ReportBlock b;
      const auto sp = line.find(' ', 6);
      b.epoch = std::stoull(line.substr(6, sp - 6));
      b.label = line.substr(sp + 1, line.find(':') - sp - 1);
      out.push_back(b);
    }
    if (!out.empty()) out.back().text += line + "\n";
  }
  return out;
}

/// What a service recovered from checkpoint + WAL must report: the blocks
/// written after each source's last checkpoint (a checkpoint stores state,
/// not report text, so older blocks are not regenerated). Checkpoints fall
/// on epochs that are multiples of `every`.
std::string expected_after_recovery(const std::string& log,
                                    std::uint64_t every) {
  const auto blocks = split_reports(log);
  std::map<std::string, std::uint64_t> last;
  for (const auto& b : blocks) last[b.label] = std::max(last[b.label], b.epoch);
  std::string out;
  for (const auto& [label, final_epoch] : last) {
    const std::uint64_t ckpt = final_epoch / every * every;
    for (const auto& b : blocks)
      if (b.label == label && b.epoch > ckpt) out += b.text;
  }
  return out;
}

std::string canonical_log(const std::string& log) {
  // Per-shard logs are concatenated in shard order; group by label so the
  // comparison does not depend on it.
  std::map<std::string, std::string> by_label;
  for (const auto& b : split_reports(log)) by_label[b.label] += b.text;
  std::string out;
  for (const auto& [label, text] : by_label) out += text;
  return out;
}

struct ServiceState {
  std::vector<double> reputations;
  std::vector<std::uint8_t> suspected;
  std::uint64_t applied = 0;
  std::string log;
};
ServiceState capture(const svc::ReputationService& s, std::size_t n) {
  ServiceState st;
  const auto snap = s.snapshot();
  for (NodeId i = 0; i < n; ++i) {
    st.reputations.push_back(snap.reputation(i));
    st.suspected.push_back(snap.suspected(i) ? 1 : 0);
  }
  st.applied = s.metrics().ratings_applied;
  st.log = s.report_log();
  return st;
}

std::vector<NodeId> suspected_nodes(const svc::ReputationService& s,
                                    std::size_t n) {
  const auto snap = s.snapshot();
  std::vector<NodeId> v;
  for (NodeId i = 0; i < n; ++i)
    if (snap.suspected(i)) v.push_back(i);
  return v;
}

/// Constructs a service over `cfg.wal_dir` `reps` times and returns each
/// construction's seconds. With `check`, the first recovery must reproduce
/// `before`: reputations, suspected set, applied count, and the report log
/// written after each source's last checkpoint (checkpoints fall on epochs
/// that are multiples of `ckpt_every` and store state, not report text).
/// With `probe`, the last one must accept a rating. Each recovery is
/// stopped cleanly, which leaves the files it read unchanged.
std::vector<double> timed_recoveries(const svc::ServiceConfig& cfg,
                                     const ServiceState& before,
                                     std::size_t n, std::uint64_t ckpt_every,
                                     int reps, bool check, bool probe,
                                     RunResult& res) {
  std::vector<double> secs;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    auto recovered = std::make_unique<svc::ReputationService>(cfg);
    secs.push_back(seconds_since(t0));
    res.check(recovered->recovered(), "service did not recover from its WAL");
    if (check && rep == 0) {
      const ServiceState after = capture(*recovered, n);
      res.check(after.reputations == before.reputations,
                "recovered reputations differ");
      res.check(after.suspected == before.suspected,
                "recovered suspected set differs");
      res.check(after.applied == before.applied,
                "recovered applied-rating count differs");
      res.check(canonical_log(after.log) ==
                    canonical_log(
                        expected_after_recovery(before.log, ckpt_every)),
                "recovered report_log differs from the post-checkpoint log");
    }
    if (probe && rep == reps - 1)
      res.check(recovered->ingest({0, 1, p2prep::rating::Score::kPositive, 0}),
                "recovered service does not accept ratings");
    recovered->stop();
  }
  return secs;
}

/// Stops `old` and times one checked recovery of its WAL directory.
double recover_and_check(std::unique_ptr<svc::ReputationService>& old,
                         const svc::ServiceConfig& cfg, std::size_t n,
                         std::uint64_t ckpt_every, RunResult& res) {
  old->drain();
  const ServiceState before = capture(*old, n);
  old->stop();
  old.reset();
  return timed_recoveries(cfg, before, n, ckpt_every, 1, true, true, res)
      .front();
}

/// A stopped durable service built for recovery timing: a service with the
/// workload's configuration (checkpoint every 2 epochs, forced epochs only)
/// took `base`, a checkpointed epoch, then `tail` with one epoch in its
/// middle that recovery must replay.
struct DurableImage {
  static constexpr std::uint64_t kEvery = 2;
  svc::ServiceConfig cfg;
  ServiceState before;
};
DurableImage durable_image(svc::ServiceConfig cfg, const std::string& dir,
                           const std::vector<Rating>& base,
                           const std::vector<Rating>& tail, std::size_t n) {
  reset_dir(dir);
  cfg.wal_dir = dir;
  cfg.checkpoint_every_epochs = DurableImage::kEvery;
  cfg.epoch_ratings = std::uint64_t{1} << 40;
  auto service = std::make_unique<svc::ReputationService>(cfg);
  for (const Rating& r : base) service->ingest(r);
  service->force_epoch();
  service->force_epoch();  // Epoch 2 checkpoints every shard.
  for (std::size_t k = 0; k < tail.size(); ++k) {
    if (k == tail.size() / 2) service->force_epoch();
    service->ingest(tail[k]);
  }
  service->drain();
  DurableImage image{cfg, capture(*service, n)};
  service->stop();
  return image;
}

/// recovery_s: the median of several recoveries of `image`, taken in two
/// windows a whole timed phase apart: recoveries_before_run() takes the
/// first (checked against the image) before it, recovery_seconds() takes
/// `after` more once it ended and the files under `flush_dir` (the run's
/// own WAL and checkpoints) are on disk. A shared host's memory speed
/// drifts over seconds, so the fastest recovery of one short window moves
/// by tens of percent from run to run; the median over both windows moves
/// by a few.
std::vector<double> recoveries_before_run(const DurableImage& image,
                                          std::size_t n, int reps,
                                          RunResult& res) {
  return timed_recoveries(image.cfg, image.before, n, DurableImage::kEvery,
                          reps, true, false, res);
}
double recovery_seconds(const DurableImage& image, std::size_t n,
                        std::vector<double> before_run, int after,
                        const std::string& flush_dir, RunResult& res) {
  flush_files(flush_dir);
  const std::vector<double> more = timed_recoveries(
      image.cfg, image.before, n, DurableImage::kEvery, after, false, true,
      res);
  before_run.insert(before_run.end(), more.begin(), more.end());
  return quantile(before_run, 0.5);
}

void check_flagged(const std::vector<NodeId>& flagged,
                   const VerdictBoard& board, RunResult& res) {
  const auto planted = board.planted_nodes();
  std::vector<NodeId> organic;
  std::set_difference(flagged.begin(), flagged.end(), planted.begin(),
                      planted.end(), std::back_inserter(organic));
  res.check(organic.empty(), std::to_string(organic.size()) +
                                 " organic node(s) flagged as colluders");
  res.check(board.missing() == 0,
            std::to_string(board.missing()) + " of " +
                std::to_string(board.size()) + " planted pair(s) not flagged");
  res.check(board.size() > 0, "workload planted no pairs");
}

void add_counts(RunResult& res, const Counts& c,
                std::vector<std::pair<std::string, double>> extra) {
  std::vector<std::pair<std::string, double>> kv = {
      {"ratings", static_cast<double>(c.ratings)},
      {"detections", static_cast<double>(c.pairs_flagged)},
      {"detect.cost_scans", static_cast<double>(c.cost_scans)},
      {"detect.cost_checks", static_cast<double>(c.cost_checks)},
      {"service.wal_bytes_per_rating", c.wal_bytes_per_rating},
      {"service.matrix_bytes", static_cast<double>(c.matrix_bytes)}};
  kv.insert(kv.end(), extra.begin(), extra.end());
  res.meta.emplace_back("counts", json_counts(kv));
}

void add_samples(RunResult& res,
                 std::vector<std::pair<std::string, double>> samples) {
  res.meta.emplace_back("samples", json_counts(samples));
}

/// Per-layer metrics shared by every workload: the layer replay, the span
/// aggregates of the run (phase 0, preferred) and of the replay (phase 1),
/// the run's service gauges and the count pass.
void finish_layers(RunResult& res, const ReplayInput& replay,
                   const svc::ServiceMetrics& sm, const Sampler& sampler,
                   const Counts& counts, double epoch_p50_ms,
                   TraceSlicer& slicer) {
  Metrics& m = res.layers;
  Metrics replayed;
  layer_replay(replay, replayed);
  const auto stats = self_times(Tracer::get().collect());
  auto pick = [&](const char* name) -> const SpanStats* {
    for (int phase : {0, 1}) {
      const auto it = stats.find({phase, name});
      if (it != stats.end() && !it->second.self_ns.empty()) return &it->second;
    }
    return nullptr;
  };
  auto q = [&](const char* name, double qq, double scale) {
    const SpanStats* s = pick(name);
    if (!s) throw std::runtime_error(std::string("no spans named ") + name);
    std::vector<double> v = s->self_ns;
    return quantile(v, qq) / scale;
  };
  auto per_item = [&](const char* name) {
    const SpanStats* s = pick(name);
    if (!s) throw std::runtime_error(std::string("no spans named ") + name);
    return s->total_ns() / static_cast<double>(std::max<std::uint64_t>(s->items, 1));
  };
  m.set("rpc.submit_rtt_p50_us", q("rpc.submit", 0.5, 1e3), "us");
  m.set("rpc.submit_rtt_p99_us", q("rpc.submit", 0.99, 1e3), "us");
  m.set("rpc.query_rtt_p50_us", q("rpc.query", 0.5, 1e3), "us");
  m.set("rpc.codec_ns_per_rating", per_item("rpc.codec"), "ns");
  std::vector<double> depths = sampler.queue_depths;
  m.set("service.queue_depth_p99", quantile(depths, 0.99), "count");
  m.set("service.drain_ms", q("service.drain", 0.5, 1e6), "ms");
  m.set("service.wal_append_ns", per_item("service.wal_append"), "ns");
  m.set("service.apply_ns", per_item("service.apply_rating"), "ns");
  m.set("service.checkpoint_ms", q("service.checkpoint", 0.5, 1e6), "ms");
  m.set("service.wal_replay_ms", q("service.wal_replay", 0.5, 1e6), "ms");
  m.set("service.checkpoint_load_ms", q("service.checkpoint_load", 0.5, 1e6),
        "ms");
  m.set("service.epoch_latency_mean_ms", sm.epoch_latency_ms_mean, "ms");
  m.set("service.epoch_latency_p99_ms", sm.epoch_latency_ms_p99, "ms");
  m.set("service.epochs", static_cast<double>(sm.epochs_completed), "count");
  m.set("service.epoch_overlap_us", static_cast<double>(sm.epoch_overlap_us),
        "us");
  m.set("service.ingest_call_ns", per_item("service.ingest"), "ns");
  m.set("service.snapshot_ns", q("service.snapshot", 0.5, 1.0), "ns");
  m.set("service.matrix_bytes", static_cast<double>(sm.matrix_bytes), "B");
  const double update = q("managers.update_reputations", 0.5, 1e6);
  m.set("managers.update_reputations_ms", update, "ms");
  const double sweep = q("detect.sweep", 0.5, 1e6);
  const double accomplice = q("detect.accomplice", 0.5, 1e6);
  const double suppress = q("managers.suppress", 0.5, 1e6);
  m.set("detect.sweep_ms", sweep, "ms");
  m.set("detect.sweep_serial_ms", q("detect.sweep_serial", 0.5, 1e6), "ms");
  m.set("detect.accomplice_ms", accomplice, "ms");
  m.set("detect.cost_scans", static_cast<double>(counts.cost_scans), "count");
  m.set("detect.cost_checks", static_cast<double>(counts.cost_checks),
        "count");
  m.set("detect.pairs_flagged", static_cast<double>(counts.pairs_flagged),
        "count");
  m.set("detect.flags_per_mcheck",
        static_cast<double>(counts.pairs_flagged) /
            (static_cast<double>(std::max<std::uint64_t>(counts.cost_checks, 1)) /
             1e6),
        "1/Mcheck");
  m.set("core.detect_ms", q("core.detect", 0.5, 1e6), "ms");
  m.set("rating.add_ns", per_item("rating.add"), "ns");
  m.set("rating.row_visit_ns_per_cell", per_item("rating.row_visit"), "ns");
  m.set("cluster.insert_rtt_p50_us", q("cluster.insert", 0.5, 1e3), "us");
  m.set("cluster.insert_rtt_p99_us", q("cluster.insert", 0.99, 1e3), "us");
  m.set("cluster.state_pull_ms", q("cluster.state_pull", 0.5, 1e6), "ms");
  m.set("cluster.push_ms", q("cluster.push", 0.5, 1e6), "ms");
  m.set("epoch.layer_share",
        epoch_p50_ms > 0.0 ? (update + sweep + accomplice + suppress) /
                                 epoch_p50_ms
                           : 0.0,
        "frac");
  m.set("trace_overhead_frac", slicer.overhead_frac(), "frac");
  // Replay-derived values fill whatever the run itself did not measure.
  m.fill_missing(replayed);
}

// --- End-to-end metric set --------------------------------------------------

/// The timings every workload reports (BENCH.md defines them per workload).
struct EndToEnd {
  double setup_s = 0.0;
  double ratings_per_s = 0.0;
  double recovery_s = 0.0;
  double peak_rss_mb = 0.0;  ///< Taken when the timed phase ends.
  Samples submit_ms;
  Samples query_ms;
  Samples verdict_ms;
  Samples epoch_ms;
};

void set_end_to_end(RunResult& res, const EndToEnd& e) {
  Metrics& m = res.metrics;
  m.set("setup_s", e.setup_s, "s");
  m.set("ratings_per_s", e.ratings_per_s, "1/s");
  // Submit and read tails are metadata, not metrics: on `ingest` they fall
  // where the closed loop's shed-and-retry cycles start, and runs of the
  // same code spread by 40-60% (BENCH.md).
  m.set("submit_p50_ms", robust_quantile(e.submit_ms, 0.5), "ms");
  m.set("query_p50_ms", robust_quantile(e.query_ms, 0.5), "ms");
  res.meta.emplace_back(
      "tails",
      json_counts({{"submit_p99_ms", robust_quantile(e.submit_ms, 0.99)},
                   {"query_p99_ms", robust_quantile(e.query_ms, 0.99)}}));
  set_timing(m, "verdict", e.verdict_ms, 0.90, "p90");
  set_timing(m, "epoch", e.epoch_ms, 0.90, "p90");
  m.set("recovery_s", e.recovery_s, "s");
  m.set("peak_rss_mb", e.peak_rss_mb, "MB");
  res.check(!e.submit_ms.empty() && !e.query_ms.empty() &&
                !e.verdict_ms.empty() && !e.epoch_ms.empty(),
            "a timing has no samples");
  add_samples(res, {{"submit", static_cast<double>(e.submit_ms.size())},
                    {"query", static_cast<double>(e.query_ms.size())},
                    {"verdict", static_cast<double>(e.verdict_ms.size())},
                    {"epoch", static_cast<double>(e.epoch_ms.size())}});
}

template <typename T>
std::vector<T> concat(const std::vector<std::vector<T>>& parts) {
  std::vector<T> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

rpc::RpcClientConfig client_config(std::uint16_t port) {
  rpc::RpcClientConfig cc;
  cc.port = port;
  // Short backoffs keep a closed-loop client busy; enough attempts (about
  // 2.5 s of waiting) that a shed run outlasts a shard's epoch and
  // checkpoint stall.
  cc.backoff_initial_ms = 1;
  cc.backoff_max_ms = 20;
  cc.max_attempts = 128;
  cc.request_timeout_ms = 10000;
  return cc;
}

/// A service behind an RPC server with `clients` connected clients.
struct RpcSystem {
  svc::ServiceConfig cfg;
  std::unique_ptr<svc::ReputationService> service;
  std::unique_ptr<rpc::RpcServer> server;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;

  RpcSystem() = default;
  RpcSystem(const RpcSystem&) = delete;
  RpcSystem& operator=(const RpcSystem&) = delete;
  ~RpcSystem() { close_front_door(); if (service) service->stop(); }

  void open_front_door(std::size_t num_clients, std::size_t workers) {
    rpc::RpcServerConfig scfg;
    scfg.num_workers = workers;
    scfg.max_inflight = 4 * cfg.queue_capacity;
    scfg.shed_backoff_ms = 1;
    server = std::make_unique<rpc::RpcServer>(*service, scfg);
    for (std::size_t i = 0; i < num_clients; ++i) {
      clients.push_back(
          std::make_unique<rpc::RpcClient>(client_config(server->port())));
      std::string err;
      if (!clients.back()->connect(&err))
        throw std::runtime_error("client connect failed: " + err);
    }
  }
  void close_front_door() {
    clients.clear();
    if (server) server->shutdown();
    server.reset();
  }
};

/// Polls QueryColluders over `client` and feeds the verdict board.
bool poll_colluders(rpc::RpcClient& client, VerdictBoard& board,
                    std::vector<NodeId>* out = nullptr) {
  rpc::QueryColludersResponse resp;
  const auto r = client.query_colluders(&resp);
  if (!r.ok || r.status != rpc::Status::kOk) return false;
  board.observe(resp.colluders, Clock::now());
  if (out) *out = resp.colluders;
  return !resp.truncated;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void finish_trace(const RunArgs& a, RunResult& res) {
  const std::string path = a.out_dir + "/spans-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".jsonl";
  res.check(write_spans(path, Tracer::get().collect()),
            "cannot write spans to " + path);
  res.meta.emplace_back("spans", json_string(path));
}

/// Shed share and retry rate of the run's own RPC traffic.
void set_rpc_layer(RunResult& res, const rpc::RpcServerStats& st,
                   std::uint64_t retries) {
  const double requests =
      static_cast<double>(std::max<std::uint64_t>(st.requests, 1));
  res.layers.set("rpc.shed_frac", static_cast<double>(st.shed) / requests,
                 "frac");
  res.layers.set("rpc.retries_per_kop",
                 1000.0 * static_cast<double>(retries) / requests, "1/kop");
}

// --- ingest -----------------------------------------------------------------
//
// Closed loop: 3 connections send SubmitBatch frames of 256 ratings as fast
// as the service answers; each also reads a reputation after every 2nd
// batch, and connection 0 polls QueryColluders every 20 ms. Per-shard
// epochs every 100k applied ratings per shard, WAL on, a checkpoint at
// every shard epoch. Pairs complete only once their ratings were sent, so
// the verdict board tracks pairs from their completing batch on.

/// One closed-loop connection's endless stream: chunks [0, pair_chunks)
/// carry `pairs_per_chunk` planted pairs each, later chunks are organic.
class ConnStream {
 public:
  ConnStream(const Generator& gen, std::size_t conn, std::size_t chunk,
             std::size_t pairs_per_chunk, std::size_t pair_chunks)
      : gen_(&gen),
        conn_(conn),
        chunk_size_(chunk),
        pairs_per_chunk_(pairs_per_chunk),
        pair_chunks_(pair_chunks) {
    load(0);
  }

  /// Chunk `idx` of this connection (deterministic in the seed).
  [[nodiscard]] Chunk make(std::size_t idx) const {
    const std::size_t pairs = idx < pair_chunks_ ? pairs_per_chunk_ : 0;
    const std::size_t first_pair =
        (conn_ * pair_chunks_ + idx) * pairs_per_chunk_;
    Chunk c = gen_->chunk(tag('I', (conn_ << 32) | idx), chunk_size_,
                          first_pair, pairs, 0.05, 0.95, 0.02,
                          (idx * 16 + conn_) << 24);
    std::sort(c.completions.begin(), c.completions.end(),
              [](const Completion& x, const Completion& y) {
                return x.index < y.index;
              });
    return c;
  }

  /// Appends the next `n` ratings to `out` and the pairs they complete to
  /// `completing`.
  void next(std::size_t n, std::vector<Rating>& out,
            std::vector<PlantedPair>& completing) {
    for (std::size_t k = 0; k < n; ++k) {
      if (pos_ == cur_.ratings.size()) load(idx_ + 1);
      while (next_completion_ < cur_.completions.size() &&
             cur_.completions[next_completion_].index == pos_) {
        completing.push_back(cur_.completions[next_completion_].pair);
        ++next_completion_;
      }
      out.push_back(cur_.ratings[pos_++]);
    }
  }

 private:
  void load(std::size_t idx) {
    idx_ = idx;
    cur_ = make(idx);
    pos_ = 0;
    next_completion_ = 0;
  }
  const Generator* gen_;
  std::size_t conn_, chunk_size_, pairs_per_chunk_, pair_chunks_;
  std::size_t idx_ = 0;
  Chunk cur_;
  std::size_t pos_ = 0;
  std::size_t next_completion_ = 0;
};

RunResult run_ingest(const RunArgs& a) {
  constexpr std::size_t kShards = 4, kConns = 3, kPairsPerChunk = 4;
  // Chunks 0..59 carry the pairs: about what a connection sends in 30 s,
  // so verdicts sample epoch cycles over the whole run. A pair counts once
  // its completing rating was sent.
  constexpr std::size_t kPairChunks = 60;
  constexpr std::size_t kPrefixChunks = 2;  // Count pass: chunks 0..1.
  constexpr std::size_t kQueryEvery = 2;    // Batches per reputation read.
  constexpr std::size_t kChunk = 65536, kBatch = 256, kTail = 20000;
  constexpr std::uint64_t kCheckpointEvery = 1;
  const auto det = detector_config();
  GenParams gp;
  // The Amazon trace model at its default scale (97 sellers, 20000
  // buyers): ratings are one-way, so no organic pair is ever mutual, and
  // the matrix is bounded by sellers x buyers however many ratings a run
  // sends (BENCH.md).
  gp.market = Market::kAmazon;
  gp.organic = gp.amazon.num_sellers + gp.amazon.num_buyers;
  gp.reserved = 2048;
  gp.detector = det;
  gp.seed = a.seed;
  const std::size_t n = gp.num_nodes();
  const Generator gen(gp, svc::ShardMap(kShards, n), /*same_shard=*/true);

  RunResult res;
  VerdictBoard board;
  std::vector<ConnStream> streams;
  std::vector<Rating> prefix;
  for (std::size_t c = 0; c < kConns; ++c) {
    streams.emplace_back(gen, c, kChunk, kPairsPerChunk, kPairChunks);
    for (std::size_t k = 0; k < kPrefixChunks; ++k) {
      const Chunk chunk = streams.back().make(k);
      prefix.insert(prefix.end(), chunk.ratings.begin(), chunk.ratings.end());
    }
  }

  const std::string dir = a.out_dir + "/ingest";
  EndToEnd e2e;
  auto sys = timed_setup(
      25,
      [&] {
        auto s = std::make_unique<RpcSystem>();
        reset_dir(dir + "/wal");
        s->cfg.num_nodes = n;
        s->cfg.num_shards = kShards;
        s->cfg.queue_capacity = 16384;
        s->cfg.epoch_scope = svc::EpochScope::kPerShard;
        s->cfg.epoch_ratings = 100000;
        s->cfg.detector_config = det;
        s->cfg.wal_dir = dir + "/wal";
        s->cfg.checkpoint_every_epochs = kCheckpointEvery;
        s->service = std::make_unique<svc::ReputationService>(s->cfg);
        s->open_front_door(kConns, 1);
        return s;
      },
      e2e.setup_s);
  svc::ReputationService& service = *sys->service;
  std::vector<Rating> fixed_tail;
  std::vector<PlantedPair> unused;
  ConnStream(gen, kConns, kChunk, 0, 0).next(kTail, fixed_tail, unused);
  const DurableImage image =
      durable_image(sys->cfg, dir + "/fixed-wal", prefix, fixed_tail, n);
  const std::vector<double> early_recoveries =
      recoveries_before_run(image, n, 20, res);

  Sampler sampler(service);
  TraceSlicer slicer(a.trace);
  std::atomic<std::uint64_t> attempted{0}, failed{0}, accepted{0};
  // Failed ops by kind, for the metadata.
  std::atomic<std::uint64_t> failed_submits{0}, failed_reads{0};
  std::atomic<std::uint64_t> failed_polls{0};
  std::vector<Samples> submit_ms(kConns), query_ms(kConns);
  std::vector<std::vector<Rating>> recorded(kConns);
  const auto t_start = Clock::now();
  const auto t_end =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.seconds));
  sampler.start();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      rpc::RpcClient& client = *sys->clients[c];
      // A submit that gave up leaves the unconsumed rest of its batch in
      // `batch`; it leads the next submit, so no rating is skipped.
      std::vector<Rating> batch;
      std::vector<PlantedPair> completing;
      std::uint64_t req = 0;
      Rng rng(a.seed ^ (0x7e57 + c));
      auto next_poll = Clock::now();
      while (Clock::now() < t_end) {
        completing.clear();
        streams[c].next(kBatch - batch.size(), batch, completing);
        const auto t0 = Clock::now();
        for (const auto& p : completing) board.completed(p, t0);
        const bool traced = Tracer::get().enabled();
        rpc::RpcClient::BatchOutcome out;
        {
          ScopedSpan span("rpc.submit", (c << 40) | ++req);
          span.set_items(batch.size());
          out = client.submit_batch(batch, kBatch);
        }
        const auto t1 = Clock::now();
        const double ms = ms_between(t0, t1);
        submit_ms[c].push_back(sample_at(t1, ms));
        slicer.add(traced, ms);
        ++attempted;
        if (!out.complete) {
          ++failed;
          ++failed_submits;
        }
        accepted += out.accepted;
        const auto consumed = static_cast<std::ptrdiff_t>(
            out.complete ? batch.size() : out.accepted + out.rejected);
        if (a.trace && recorded[c].size() < 150000)
          recorded[c].insert(recorded[c].end(), batch.begin(),
                             batch.begin() + consumed);
        batch.erase(batch.begin(), batch.begin() + consumed);
        // Reads ride the same closed loop: a reputation read after every
        // 2nd batch, and on connection 0 a colluder poll every 20 ms.
        if (req % kQueryEvery == 0) {
          rpc::QueryReputationResponse resp;
          rpc::CallResult r;
          const auto q0 = Clock::now();
          {
            ScopedSpan span("rpc.query");
            r = client.query_reputation(
                static_cast<NodeId>(rng.next_below(gp.organic)), &resp);
          }
          const auto q1 = Clock::now();
          query_ms[c].push_back(sample_at(q1, ms_between(q0, q1)));
          ++attempted;
          if (!r.ok || r.status != rpc::Status::kOk) {
            ++failed;
            ++failed_reads;
          }
        }
        if (c == 0 && Clock::now() >= next_poll) {
          ++attempted;
          if (!poll_colluders(client, board)) {
            ++failed;
            ++failed_polls;
          }
          next_poll = Clock::now() + std::chrono::milliseconds(20);
        }
      }
      if (!batch.empty()) {  // The last submit gave up: send the rest.
        const auto out = client.submit_batch(batch, kBatch);
        ++attempted;
        accepted += out.accepted;
        if (!out.complete) {
          ++failed;
          ++failed_submits;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  slicer.stop();
  Tracer::get().set_enabled(a.trace);  // The closing drain is always traced.
  {
    ScopedSpan span("service.drain");
    service.drain();
  }
  Tracer::get().set_enabled(false);
  const auto t_drained = Clock::now();
  sampler.stop();
  const svc::ServiceMetrics sm = service.metrics();
  e2e.peak_rss_mb = peak_rss_mb();
  e2e.ratings_per_s = static_cast<double>(sm.ratings_applied) /
                      std::chrono::duration<double>(t_drained - t_start).count();
  e2e.submit_ms = concat(submit_ms);
  e2e.query_ms = concat(query_ms);
  e2e.epoch_ms = sampler.epoch_ms;

  // A closing epoch flags pairs completed after each shard's last cadence
  // epoch; it also checkpoints every shard.
  service.force_epoch();
  service.drain();
  std::vector<NodeId> flagged;
  ++attempted;
  if (!poll_colluders(*sys->clients[0], board, &flagged)) ++failed;
  check_flagged(flagged, board, res);
  e2e.verdict_ms = board.verdicts();

  // WAL tail past the checkpoint, then stop and recover.
  std::vector<Rating> tail;
  std::vector<PlantedPair> none;
  streams[0].next(kTail, tail, none);
  const auto tail_out = sys->clients[0]->submit_batch(tail, kBatch);
  ++attempted;
  if (!tail_out.complete) ++failed;
  accepted += tail_out.accepted;
  // Every rating the server acknowledged is applied exactly once: a lost
  // or a twice-delivered rating (client retries are at-least-once) shows
  // as a difference here.
  service.drain();
  const std::uint64_t applied = service.metrics().ratings_applied;
  res.check(applied == accepted.load(),
            std::to_string(accepted.load()) + " ratings acknowledged but " +
                std::to_string(applied) + " applied");
  const rpc::RpcServerStats server_stats = sys->server->stats();
  std::uint64_t retries = 0, reconnects = 0, transport_errors = 0;
  for (const auto& c : sys->clients) {
    retries += c->stats().retries;
    reconnects += c->stats().reconnects;
    transport_errors += c->stats().transport_errors;
  }
  res.meta.emplace_back(
      "failed_ops",
      json_counts({{"submits", static_cast<double>(failed_submits.load())},
                   {"reads", static_cast<double>(failed_reads.load())},
                   {"polls", static_cast<double>(failed_polls.load())}}));
  res.meta.emplace_back(
      "rpc_client", json_counts({{"retries", static_cast<double>(retries)},
                                 {"reconnects", static_cast<double>(reconnects)},
                                 {"transport_errors",
                                  static_cast<double>(transport_errors)}}));
  sys->close_front_door();
  // The run's own WAL directory must recover to the same state; its time
  // depends on how much the closed loop ingested, so it is only reported in
  // the metadata. recovery_s rebuilds a fixed state: the count-pass prefix.
  const double run_recovery_s =
      recover_and_check(sys->service, sys->cfg, n, kCheckpointEvery, res);
  res.meta.emplace_back("run_recovery_s", json_number(run_recovery_s));
  e2e.recovery_s =
      recovery_seconds(image, n, early_recoveries, 20, dir, res);

  const Counts counts = count_pass(prefix, n, kShards, det);
  const std::size_t prefix_pairs = kConns * kPrefixChunks * kPairsPerChunk;
  res.check(counts.pairs_flagged == prefix_pairs,
            "count pass flagged " + std::to_string(counts.pairs_flagged) +
                " pairs, planted " + std::to_string(prefix_pairs));
  add_counts(res, counts, {});
  set_end_to_end(res, e2e);
  res.attempted = attempted.load();
  res.failed = failed.load();
  if (a.trace) {
    set_rpc_layer(res, server_stats, retries);
    ReplayInput in;
    for (const auto& r : recorded) in.stream.insert(in.stream.end(), r.begin(), r.end());
    in.epoch_ends = {400000};
    in.num_nodes = n;
    in.shards = kShards;
    in.detector = det;
    in.scratch_dir = dir + "/replay";
    finish_layers(res, in, sm, sampler, counts,
                  mean(values(sampler.epoch_ms)), slicer);
    finish_trace(a, res);
  }
  return res;
}

// --- epoch ------------------------------------------------------------------
//
// In process, no RPC: a preloaded state of one year of the Overstock trace
// model's organic traffic at its default scale (100k users, 450k
// transactions; the set-up), then a fixed number of forced global epochs,
// kEpochsPerSecond per second of --seconds, each preceded by a delta of 512
// organic ratings and 2 fresh planted pairs. A fixed count (not a timed
// loop) keeps the work, and so the state every epoch sees, the same in
// every run of one seed. Determinism is checked in the same run: a second
// service replays the preload and the first kCheckedEpochs deltas and must
// write the same report log, and a second count pass the same counts.

RunResult run_epoch(const RunArgs& a) {
  constexpr std::size_t kShards = 4, kPreload = 400000, kDelta = 512;
  constexpr std::size_t kPairsPerEpoch = 2;
  constexpr double kEpochsPerSecond = 10.0;
  constexpr std::size_t kMinEpochs = 100, kCheckedEpochs = 16;
  constexpr std::size_t kQueriesPerEpoch = 256, kReadsPerQuery = 64;
  constexpr std::size_t kTail = 20000;
  const auto det = detector_config();
  GenParams gp;
  // The global sweep costs about (high-reputed nodes) x n checks, and
  // nearly every organic node is high-reputed, so the trace model's 100k
  // users would make one epoch take minutes; 3000 organic ids put it at
  // tens of milliseconds on a 4-vCPU host (BENCH.md).
  gp.organic = 3000;
  gp.reserved = 4096;
  gp.detector = det;
  gp.seed = a.seed;
  const std::size_t n = gp.num_nodes();
  const Generator gen(gp, svc::ShardMap(kShards, n), /*same_shard=*/false);
  const std::size_t epochs = std::max(
      kMinEpochs, static_cast<std::size_t>(kEpochsPerSecond * a.seconds));
  if (epochs * kPairsPerEpoch > gen.max_pairs())
    throw std::invalid_argument("--seconds too large for the reserved ids");

  RunResult res;
  const Chunk preload =
      gen.chunk(tag('P', 0), kPreload, 0, 0, 0.0, 1.0, 0.0, 0);
  auto make_delta = [&](std::size_t e) {
    return gen.chunk(tag('D', e), kDelta, e * kPairsPerEpoch, kPairsPerEpoch,
                     0.5, 1.0, 0.5, kPreload + e * 8192);
  };
  std::vector<Chunk> deltas;
  for (std::size_t e = 0; e < epochs; ++e) deltas.push_back(make_delta(e));

  const std::string dir = a.out_dir + "/epoch";
  svc::ServiceConfig cfg;
  cfg.num_nodes = n;
  cfg.num_shards = kShards;
  cfg.queue_capacity = 16384;
  cfg.epoch_scope = svc::EpochScope::kGlobal;
  cfg.epoch_ratings = std::uint64_t{1} << 40;  // Forced epochs only.
  cfg.detector_config = det;
  auto preloaded = [&] {
    auto s = std::make_unique<svc::ReputationService>(cfg);
    {
      ScopedSpan span("service.ingest");
      span.set_items(preload.ratings.size());
      for (const Rating& r : preload.ratings) s->ingest(r);
    }
    s->drain();
    return s;
  };
  EndToEnd e2e;
  auto service = timed_setup(11, preloaded, e2e.setup_s);

  std::vector<Rating> prefix = preload.ratings;
  prefix.insert(prefix.end(), deltas[0].ratings.begin(),
                deltas[0].ratings.end());
  const Chunk tail = gen.chunk(tag('T', 0), kTail, 0, 0, 0.0, 1.0, 0.0,
                               kPreload + epochs * 8192);
  const DurableImage image =
      durable_image(cfg, dir + "/wal", prefix, tail.ratings, n);
  const std::vector<double> early_recoveries =
      recoveries_before_run(image, n, 8, res);

  Sampler sampler(*service);
  TraceSlicer slicer(a.trace);
  VerdictBoard board;
  Rng rng(a.seed ^ 0x9e37);
  double read_sum = 0.0;  // Keeps the timed reads observable.
  std::uint64_t attempted = 0, failed = 0, ingested = preload.ratings.size();
  std::vector<double> delta_rates;  // Ratings per second of each delta.
  if (a.trace) sampler.start();  // Queue depth is a per-layer metric.
  for (std::size_t e = 0; e < epochs; ++e) {
    const Chunk& delta = deltas[e];
    for (const auto& c : delta.completions) board.expect(c.pair);
    const auto d0 = Clock::now();
    {
      ScopedSpan span("service.ingest");
      span.set_items(delta.ratings.size());
      for (const Rating& r : delta.ratings) {
        const auto t0 = Clock::now();
        const bool ok = service->ingest(r);
        const auto t1 = Clock::now();
        e2e.submit_ms.push_back(sample_at(t1, ms_between(t0, t1)));
        ++attempted;
        if (ok)
          ++ingested;
        else
          ++failed;
      }
    }
    {
      ScopedSpan span("service.drain");
      service->drain();
    }
    const auto applied_at = Clock::now();
    delta_rates.push_back(
        static_cast<double>(delta.ratings.size()) /
        std::chrono::duration<double>(applied_at - d0).count());
    for (const auto& c : delta.completions) board.completed(c.pair, applied_at);
    for (std::size_t q = 0; q < kQueriesPerEpoch; ++q) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span("service.snapshot");
        const auto snap = service->snapshot();
        for (std::size_t k = 0; k < kReadsPerQuery; ++k)
          read_sum += snap.reputation(static_cast<NodeId>(rng.next_below(n)));
      }
      const auto t1 = Clock::now();
      e2e.query_ms.push_back(sample_at(t1, ms_between(t0, t1)));
      ++attempted;
    }
    const bool traced = Tracer::get().enabled();
    const auto t0 = Clock::now();
    {
      ScopedSpan span("service.epoch", e + 1);
      {
        ScopedSpan force("service.force_epoch");
        service->force_epoch();
      }
      ScopedSpan drain("service.epoch_drain");
      service->drain();
    }
    const auto t1 = Clock::now();
    ++attempted;
    e2e.epoch_ms.push_back(sample_at(t1, ms_between(t0, t1)));
    slicer.add(traced, ms_between(t0, t1));
    board.observe(suspected_nodes(*service, n), t1);
  }
  sampler.stop();
  slicer.stop();
  e2e.ratings_per_s = quantile(delta_rates, 0.5);
  res.meta.emplace_back("read_checksum", json_number(read_sum));
  check_flagged(suspected_nodes(*service, n), board, res);
  e2e.verdict_ms = board.verdicts();
  const svc::ServiceMetrics sm = service->metrics();
  res.check(sm.ratings_applied == ingested,
            "applied-rating count differs from the ratings ingested");
  e2e.peak_rss_mb = peak_rss_mb();

  // Determinism, inside the run: a second service fed the same preload and
  // the first kCheckedEpochs deltas must write the same report log, and a
  // second count pass the same counts.
  auto first_reports = [&](const std::string& log) {
    std::string out;
    for (const auto& b : split_reports(log))
      if (b.epoch <= kCheckedEpochs) out += b.text;
    return out;
  };
  const std::string reports = first_reports(service->report_log());
  std::string epoch1;
  for (const auto& b : split_reports(service->report_log()))
    if (b.epoch == 1) epoch1 = b.text;
  service->stop();
  service.reset();
  {
    auto again = preloaded();
    for (std::size_t e = 0; e < kCheckedEpochs; ++e) {
      for (const Rating& r : deltas[e].ratings) again->ingest(r);
      again->drain();
      again->force_epoch();
      again->drain();
    }
    res.check(first_reports(again->report_log()) == reports,
              "a second service fed the same ratings wrote a different "
              "report log for the first epochs");
    again->stop();
  }
  const Counts counts = count_pass(prefix, n, kShards, det);
  const Counts counts_again = count_pass(prefix, n, kShards, det);
  res.check(counts.report_text == epoch1,
            "epoch 1 report differs from the detect-layer replay");
  res.check(counts_again.report_text == counts.report_text &&
                counts_again.cost_scans == counts.cost_scans &&
                counts_again.cost_checks == counts.cost_checks &&
                counts_again.matrix_bytes == counts.matrix_bytes,
            "two count passes over the same prefix disagree");
  res.check(counts.pairs_flagged == kPairsPerEpoch,
            "count pass flagged " + std::to_string(counts.pairs_flagged) +
                " pairs, planted " + std::to_string(kPairsPerEpoch));
  std::ostringstream digest;
  digest << std::hex << fnv1a(reports) << std::dec << ' ' << counts.cost_scans
         << ' ' << counts.cost_checks << ' ' << counts.matrix_bytes;
  res.meta.emplace_back("digest", json_string(digest.str()));

  e2e.recovery_s =
      recovery_seconds(image, n, early_recoveries, 8, dir, res);

  add_counts(res, counts,
             {{"epochs", static_cast<double>(epochs)},
              {"epochs_digested", static_cast<double>(kCheckedEpochs)}});
  set_end_to_end(res, e2e);
  res.attempted = attempted;
  res.failed = failed;
  if (a.trace) {
    ReplayInput in;
    in.stream = prefix;
    for (std::size_t e = 1; e < 4; ++e)
      in.stream.insert(in.stream.end(), deltas[e].ratings.begin(),
                       deltas[e].ratings.end());
    for (std::size_t e = 0, end = kPreload; e < 4; ++e) {
      end += deltas[e].ratings.size();
      in.epoch_ends.push_back(end);
    }
    in.num_nodes = n;
    in.shards = kShards;
    in.detector = det;
    in.scratch_dir = dir + "/replay";
    std::vector<double> ep = values(e2e.epoch_ms);
    finish_layers(res, in, sm, sampler, counts, quantile(ep, 0.5), slicer);
    finish_trace(a, res);
  }
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ingest", "epoch"};
  return names;
}

RunResult run_workload(const RunArgs& args) {
  fs::create_directories(args.out_dir);
  if (args.workload == "ingest") return run_ingest(args);
  if (args.workload == "epoch") return run_epoch(args);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace perfbench
