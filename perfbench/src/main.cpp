// p2prep_perfbench: one workload of the rating-path benchmark per run.
//
//   p2prep_perfbench --workload <ingest|epoch> --seed <n>
//                    --seconds <s> --trace <0|1> [--out <dir>]
//                    [--rev <git revision>] [--src-lines <n>]
//
// Prints a metadata line, then, as the last line of stdout, the result:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when a
// correctness check failed and 2 on bad arguments or an aborted run.
// perfbench/run.py builds this binary and passes the revision and line
// count.
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "p2prep_perfbench: " << why
            << "\nusage: p2prep_perfbench --workload <ingest|epoch> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--rev <rev>] "
               "[--src-lines <n>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  args.out_dir = ".bench_out";
  std::string rev = "unknown";
  std::string src_lines = "0";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out") {
        args.out_dir = value;
      } else if (flag == "--rev") {
        rev = value;
      } else if (flag == "--src-lines") {
        src_lines = std::to_string(std::stoull(value));
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds >= 1.0 && args.seconds <= 600.0))
    return usage("--seconds must be in [1, 600]");
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == args.workload;
  if (!known) return usage("unknown workload '" + args.workload + "'");

  RunResult res;
  try {
    res = run_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "p2prep_perfbench: run aborted: " << e.what() << "\n";
    return 2;
  }

  res.check(res.attempted > 0, "the run attempted no operations");
  std::string meta = "{\"meta\": {\"workload\": " + json_string(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + json_number(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                     ", \"git_revision\": " + json_string(rev) +
                     ", \"src_lines\": " + src_lines +
                     ", \"ops_failed_frac\": " +
                     json_number(res.attempted == 0
                                     ? 0.0
                                     : static_cast<double>(res.failed) /
                                           static_cast<double>(res.attempted));
  for (const auto& [key, value] : res.meta)
    meta += ", " + json_string(key) + ": " + value;
  meta += ", \"failures\": [";
  for (std::size_t i = 0; i < res.failures.size(); ++i)
    meta += (i ? ", " : "") + json_string(res.failures[i]);
  meta += "]}}";
  std::cout << meta << std::endl;

  for (const auto& f : res.failures)
    std::cerr << "p2prep_perfbench: check failed: " << f << "\n";
  const Metrics& metrics = args.trace ? res.layers : res.metrics;
  std::cout << "{\"correct\": " << (res.correct ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return res.correct ? 0 : 1;
}
