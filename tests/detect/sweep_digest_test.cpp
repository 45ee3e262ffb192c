// Golden-digest gate for the Basic and Optimized detection methods. Each
// constant folds, over all 100 randomized collusion traces of
// trace_gen.h, the report text (format_epoch_report) and the charged
// cost (CostCounter::to_string) of one single-matrix configuration:
// {basic, optimized} x {matrix built with T_N, built with threshold 0} x
// {dense, sparse}, each under the per-seed detector config of
// trace_gen.h. The constants were recorded from the row-scan detectors
// that predate the shared detect/ sweeps, so any drift in a verdict, an
// evidence field or a charged scan/check shows up here. Eight more cases
// force one-sided mode (require_mutual = false) or the paper-literal
// Formula (2) (joint_complement = false) on every seed, on both backends;
// the sweeps charge skipped partners in bulk with counts that branch on
// both flags, and these constants were recorded from the per-partner
// sweeps that preceded the bulk charge.
//
// To re-record after an intended change, run the suite: each failure
// prints the digest the current code produces.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/basic_detector.h"
#include "core/optimized_detector.h"
#include "detect/accomplice_exchange.h"
#include "detect/pair_sweep.h"
#include "detect/snapshot.h"
#include "dht/hash.h"
#include "rating/matrix.h"
#include "rating/store.h"
#include "service/shard.h"
#include "tests/differential/trace_gen.h"

namespace p2prep {
namespace {

using rating::MatrixBackend;
using rating::Rating;
using rating::RatingMatrix;
using rating::RatingStore;

constexpr std::uint64_t kSeeds = 100;

enum class Method { kBasic, kOptimized };

/// How the per-seed config of trace_gen.h is overridden.
enum class Variant {
  kSeedConfig,     ///< As trace_gen.h draws it.
  kOneSided,       ///< require_mutual = false on every seed.
  kPaperFormula2,  ///< joint_complement = false on every seed.
};

struct DigestCase {
  const char* name;
  Method method;
  bool tn_built;  ///< Matrix carries the T_N frequent aggregate (else 0).
  MatrixBackend backend;
  std::uint64_t digest;
  Variant variant = Variant::kSeedConfig;
};

core::DetectorConfig config_of(const DigestCase& c, std::uint64_t seed) {
  core::DetectorConfig cfg = testgen::config_for(seed);
  if (c.variant == Variant::kOneSided) cfg.require_mutual = false;
  if (c.variant == Variant::kPaperFormula2) cfg.joint_complement = false;
  return cfg;
}

// Prints the case by name, so the test names ctest registers carry no
// pointer bytes and stay stable from one build to the next.
void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

RatingMatrix build_matrix(const RatingStore& store,
                          const std::vector<double>& reps,
                          const core::DetectorConfig& cfg, bool tn_built,
                          MatrixBackend backend) {
  return RatingMatrix::build(store, reps, cfg.high_rep_threshold,
                             tn_built ? cfg.frequency_min : 0, backend);
}

std::uint64_t digest_of(const DigestCase& c) {
  std::string text;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const testgen::Trace trace = testgen::make_trace(seed);
    const core::DetectorConfig cfg = config_of(c, seed);
    RatingStore store(trace.n);
    for (const Rating& r : trace.ratings) store.ingest(r);
    const RatingMatrix matrix = build_matrix(
        store, testgen::reputations_of(store), cfg, c.tn_built, c.backend);
    const core::DetectionReport report =
        c.method == Method::kBasic
            ? core::BasicCollusionDetector(cfg).detect(matrix)
            : core::OptimizedCollusionDetector(cfg).detect(matrix);
    text += service::format_epoch_report("seed", seed, report);
    text += report.cost.to_string();
    text += '\n';
  }
  return dht::hash_bytes(text);
}

constexpr DigestCase kCases[] = {
    {"BasicTnDense", Method::kBasic, true, MatrixBackend::kDense,
     0x506798baff084312ULL},
    {"BasicTnSparse", Method::kBasic, true, MatrixBackend::kSparse,
     0x4019041048a0ce74ULL},
    {"BasicZeroDense", Method::kBasic, false, MatrixBackend::kDense,
     0x506798baff084312ULL},
    {"BasicZeroSparse", Method::kBasic, false, MatrixBackend::kSparse,
     0x4019041048a0ce74ULL},
    {"OptimizedTnDense", Method::kOptimized, true, MatrixBackend::kDense,
     0x6a95c65138bebe71ULL},
    {"OptimizedTnSparse", Method::kOptimized, true, MatrixBackend::kSparse,
     0x2134ab6d7441f0f6ULL},
    {"OptimizedZeroDense", Method::kOptimized, false, MatrixBackend::kDense,
     0x809a5aebdc14d061ULL},
    {"OptimizedZeroSparse", Method::kOptimized, false, MatrixBackend::kSparse,
     0x9000e347ad0f8215ULL},
    {"BasicOneSidedDense", Method::kBasic, true, MatrixBackend::kDense,
     0x1fd7ce09a8cc49b7ULL, Variant::kOneSided},
    {"BasicOneSidedSparse", Method::kBasic, true, MatrixBackend::kSparse,
     0xa07770c15bcc34c6ULL, Variant::kOneSided},
    {"BasicFormula2Dense", Method::kBasic, true, MatrixBackend::kDense,
     0x70ee617406ef8d11ULL, Variant::kPaperFormula2},
    {"BasicFormula2Sparse", Method::kBasic, true, MatrixBackend::kSparse,
     0x01d0474f34babf5dULL, Variant::kPaperFormula2},
    {"OptimizedOneSidedDense", Method::kOptimized, true,
     MatrixBackend::kDense, 0x9bff221d7db6b8e1ULL, Variant::kOneSided},
    {"OptimizedOneSidedSparse", Method::kOptimized, true,
     MatrixBackend::kSparse, 0x0d57948f2f5b0becULL, Variant::kOneSided},
    {"OptimizedFormula2Dense", Method::kOptimized, true,
     MatrixBackend::kDense, 0x73a9bf5ccb161227ULL, Variant::kPaperFormula2},
    {"OptimizedFormula2Sparse", Method::kOptimized, true,
     MatrixBackend::kSparse, 0x8cc64928b463b859ULL, Variant::kPaperFormula2},
};

class SweepDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(SweepDigestTest, MatchesRecordedDigest) {
  const DigestCase& c = GetParam();
  const std::uint64_t got = digest_of(c);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64 "ULL", got);
  EXPECT_EQ(got, c.digest) << c.name << " now digests to " << hex;
}

INSTANTIATE_TEST_SUITE_P(Configs, SweepDigestTest, ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// A sharded snapshot must not depend on whether its matrices carry the
// T_N frequent aggregate: two shard matrices built with threshold 0 give
// the report of the same shards built with T_N, for both methods.
TEST(SweepDigestShardsTest, ThresholdZeroShardsMatchTnBuiltShards) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const testgen::Trace trace = testgen::make_trace(seed);
    const core::DetectorConfig cfg = testgen::config_for(seed);
    RatingStore whole(trace.n);
    for (const Rating& r : trace.ratings) whole.ingest(r);
    const std::vector<double> reps = testgen::reputations_of(whole);

    // Two shards: each keeps the rows of the ratees it owns under
    // EpochSnapshot::owner_of's fallback partition (no owner table).
    detect::EpochSnapshot layout;
    layout.matrices.assign(2, nullptr);
    std::vector<RatingStore> stores(2, RatingStore(trace.n));
    for (const Rating& r : trace.ratings)
      stores[layout.owner_of(r.ratee)].ingest(r);

    std::string reports[2][2];  // [tn_built][method]
    for (const bool tn_built : {false, true}) {
      std::vector<RatingMatrix> shards;
      for (const RatingStore& s : stores)
        shards.push_back(build_matrix(s, reps, cfg, tn_built,
                                      MatrixBackend::kSparse));
      detect::EpochSnapshot snap;
      for (const RatingMatrix& m : shards) snap.matrices.push_back(&m);

      core::DetectionReport basic = detect::sweep_basic(snap, cfg);
      detect::propagate_accomplices(snap, cfg, basic);
      core::DetectionReport optimized = detect::sweep_optimized(snap, cfg);
      detect::propagate_accomplices(snap, cfg, optimized);
      reports[tn_built][0] = service::format_epoch_report("s", seed, basic);
      reports[tn_built][1] =
          service::format_epoch_report("s", seed, optimized);
    }
    EXPECT_EQ(reports[0][0], reports[1][0]) << "basic, seed " << seed;
    EXPECT_EQ(reports[0][1], reports[1][1]) << "optimized, seed " << seed;
  }
}

}  // namespace
}  // namespace p2prep
