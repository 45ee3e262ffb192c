// The Basic ("Unoptimized") collusion detection method, paper Sec. IV-B.
//
// The manager scans the rating matrix top-down, row by row. For each
// high-reputed node n_i (C1) it examines every rater n_j: if n_j is also
// high-reputed and rates n_i frequently (C4, N_(i,j) >= T_N) and mostly
// positively (C3, a >= T_a), the manager scans the whole row of n_i
// *excluding* n_j to compute the complement fraction b; if b < T_b (C2) it
// repeats the entire check from n_j's side, and flags the pair when both
// directions hold. A checked pair is settled from both sides (the paper
// marks a_ij and a_ji), so it is not re-examined within the pass.
//
// The complement row scan is deliberately performed element-by-element even
// though this implementation's matrix happens to carry row totals: the
// paper's manager stores only <ID_i, R_i, N_(i,j), N+_(i,j)> per cell, and
// that scan is precisely the O(n) inner cost that makes the method
// O(m n^2) (Proposition 4.1) and that the Optimized method removes.
//
// This class is the single-matrix entry point of the method. The sweep
// itself is detect::sweep_basic (detect/pair_sweep.h), followed by
// detect::propagate_accomplices; both are defined in p2prep_detect, and
// so is detect() below (detect/core_detectors.cpp).
#pragma once

#include "core/detector.h"

namespace p2prep::core {

class BasicCollusionDetector final : public CollusionDetector {
 public:
  explicit BasicCollusionDetector(DetectorConfig config)
      : CollusionDetector(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Unoptimized";
  }

  [[nodiscard]] DetectionReport detect(
      const rating::RatingMatrix& matrix) const override;
};

}  // namespace p2prep::core
