// The workloads of the rating-path benchmark (see BENCH.md): what
// each drives, how it checks its outputs, and what it reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for scratch files and spans.
  std::string out_dir;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  ///< Why `correct` is false.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;  ///< End-to-end metrics (untraced runs report these).
  Metrics layers;   ///< Per-layer metrics (traced runs report these).
  /// Extra JSON members of the metadata line (sample counts, deterministic
  /// counts, failure and retry counts).
  std::vector<std::pair<std::string, std::string>> meta;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] RunResult run_workload(const RunArgs& args);

}  // namespace perfbench
