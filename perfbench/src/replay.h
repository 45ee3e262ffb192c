// Layer-by-layer replay of a recorded rating stream through the public
// functions of each module on the rating path, timed with spans.
//
// The Mirror rebuilds the service's sharded state outside the service —
// one ServiceShard per shard under the same ShardMap — and runs the global
// epoch body step by step (reputation update, range-partitioned sweep,
// accomplice exchange, suppression, publish), so its report text equals
// the service's for the same stream and epoch positions. The workloads use
// it twice: for the deterministic-count block and correctness checks of
// every run, and, in traced runs, to split the service's internal time by
// layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/config.h"
#include "core/evidence.h"
#include "detect/executor.h"
#include "gen.h"
#include "rating/types.h"
#include "service/shard.h"
#include "service/shard_map.h"
#include "util/thread_pool.h"

namespace perfbench {

/// detect::Executor over a plain thread pool (the bench's 4-thread scan
/// executor; the service lends its own threads the same way).
class PoolExecutor final : public p2prep::detect::Executor {
 public:
  explicit PoolExecutor(std::size_t threads) : pool_(threads) {}
  void run(std::size_t num_tasks,
           const std::function<void(std::size_t)>& fn) override {
    pool_.parallel_for(0, num_tasks, fn);
  }
  [[nodiscard]] std::size_t concurrency() const noexcept override {
    return pool_.size();
  }

 private:
  p2prep::util::ThreadPool pool_;
};

struct EpochResult {
  p2prep::core::DetectionReport report;
  std::string text;  ///< format_epoch_report("global", seq, report).
  std::uint32_t accomplice_rounds = 0;
};

class Mirror {
 public:
  Mirror(std::size_t num_nodes, std::size_t shards,
         const p2prep::core::DetectorConfig& det);
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  /// Applies ratings to their owner shards (ServiceShard::apply_rating).
  void apply(const std::vector<Rating>& ratings, std::size_t begin,
             std::size_t end);
  /// One global epoch, exactly as ReputationService::run_global_epoch
  /// runs it for the optimized detector.
  /// With `time_serial`, the sweep also runs once without the executor
  /// (the single-thread baseline span) and the two must agree.
  EpochResult global_epoch(std::uint64_t seq,
                           p2prep::detect::Executor* executor,
                           bool time_serial);

  [[nodiscard]] std::size_t shards() const { return shards_.size(); }
  [[nodiscard]] p2prep::service::ServiceShard& shard(std::size_t i) {
    return *shards_[i];
  }
  [[nodiscard]] const p2prep::service::ShardMap& map() const { return map_; }
  [[nodiscard]] std::uint64_t matrix_bytes() const;

 private:
  p2prep::service::ServiceConfig config_;  // Shards keep a pointer to it.
  p2prep::service::ShardMap map_;
  std::vector<std::unique_ptr<p2prep::service::ServiceShard>> shards_;
};

/// Deterministic counts of one stream prefix, independent of run timing.
struct Counts {
  std::uint64_t ratings = 0;
  std::uint64_t pairs_flagged = 0;
  std::uint64_t cost_scans = 0;
  std::uint64_t cost_checks = 0;
  std::uint64_t matrix_bytes = 0;
  double wal_bytes_per_rating = 0.0;
  std::string report_text;  ///< The epoch-1 report of the prefix.
};
/// Applies `prefix` to a fresh mirror and runs one serial global epoch.
[[nodiscard]] Counts count_pass(const std::vector<Rating>& prefix,
                                std::size_t num_nodes, std::size_t shards,
                                const p2prep::core::DetectorConfig& det);

struct ReplayInput {
  std::vector<Rating> stream;  ///< Recorded stream, in send order.
  /// Stream positions after which the workload ran an epoch (ascending).
  std::vector<std::size_t> epoch_ends;
  std::size_t num_nodes = 0;
  std::size_t shards = 4;
  p2prep::core::DetectorConfig detector{};
  std::string scratch_dir;  ///< Emptied and reused for WAL/checkpoint files.
};


/// Replays `in` through every layer's public functions with spans in
/// phase 1 (see BENCH.md for the span -> metric table) and adds the
/// replay-derived per-layer metrics to `out`.
void layer_replay(const ReplayInput& in, Metrics& out);

}  // namespace perfbench
