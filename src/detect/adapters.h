// Registry adapters for the paper's detection methods and the group
// detector, all producing the shared core::DetectionReport shape:
//
//  * BasicAdapter / OptimizedAdapter — run detect::sweep_{basic,optimized}
//    over the snapshot (one matrix or S shard matrices), then the
//    accomplice exchange detect::propagate_accomplices. This is the only
//    implementation of the two methods: core::{Basic,Optimized}
//    CollusionDetector::detect (defined in adapters.cpp) make the same two
//    calls over EpochSnapshot::of(matrix).
//  * GroupAdapter — runs core::GroupCollusionDetector and re-expresses
//    each CollusionGroup as a RingEvidence record (members + inside /
//    outside aggregates), so group membership flows through the same
//    suppression, accomplice and RPC paths as ring membership. Group is
//    single-matrix (the service restricts it to one shard), so a
//    multi-matrix snapshot there is a host bug — std::logic_error.
#pragma once

#include "core/group_detector.h"
#include "detect/detector.h"

namespace p2prep::detect {

class BasicAdapter final : public Detector {
 public:
  explicit BasicAdapter(core::DetectorConfig config) : Detector(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "basic";
  }

  void on_epoch(const EpochSnapshot& snapshot,
                core::DetectionReport& report) override;
};

class OptimizedAdapter final : public Detector {
 public:
  explicit OptimizedAdapter(core::DetectorConfig config)
      : Detector(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "optimized";
  }

  void on_epoch(const EpochSnapshot& snapshot,
                core::DetectionReport& report) override;
};

class GroupAdapter final : public Detector {
 public:
  explicit GroupAdapter(core::DetectorConfig config)
      : Detector(config), inner_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "group";
  }

  void on_epoch(const EpochSnapshot& snapshot,
                core::DetectionReport& report) override;

 private:
  core::GroupCollusionDetector inner_;
};

}  // namespace p2prep::detect
