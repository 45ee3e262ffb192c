// The Basic / Optimized pairwise sweeps of the paper (DESIGN.md §15) —
// the one implementation of both methods. core::{Basic,Optimized}
// CollusionDetector, the registry adapters and the service's global epoch
// all call these, followed by detect::propagate_accomplices.
//
// The sweeps run over an EpochSnapshot: every quantity about node i (row,
// totals, frequent aggregate, window reputation) is read from
// snapshot.matrix_of(i) — the owner shard's matrix — so the same code
// serves one matrix or S shard matrices. Neither sweep depends on the
// matrix carrying the T_N frequent aggregate: Basic tests each cell
// against T_N during its row walk, and Optimized recomputes the
// aggregate from the row (charging the scans) when the matrix was built
// for another threshold.
//
// Work is proportional to stored cells, cost to the paper's model: C4
// (N_(i,j) >= T_N > 0) can only pass on a stored cell, so each sweep
// walks row i's stored cells and runs the full check only for the
// frequent ones, charging every other partner its exact per-partner
// scans and checks in bulk (DESIGN.md §15.1). Both throw
// std::invalid_argument when T_N is 0.
//
// Parallelism: the outer node index [0, n) is split into contiguous
// ranges, one task per range, run through snapshot.executor (serial when
// null). Each task fills a task-local sub-report; the merge concatenates
// pairs in range order and sums the cost counters. Every ordered pair
// (i, j) is examined, or skipped, from row i alone, so the merged report
// and its cost are identical to a serial pass for ANY task count, and
// canonicalize() fixes the final ordering. The parallel-vs-serial
// differential suite (tests/differential/parallel_epoch_test.cpp)
// enforces this byte-for-byte.
#pragma once

#include "core/config.h"
#include "core/evidence.h"
#include "detect/snapshot.h"

namespace p2prep::detect {

/// Basic-method sweep: for each high-reputed row i (one C1 check per
/// row), every partner j except a lower high-reputed one — that pair was
/// settled from j's row — charged a complement scan of the row's other
/// stored cells per direction. Returns the canonicalized report (pairs
/// only — rings never come from the pairwise methods).
[[nodiscard]] core::DetectionReport sweep_basic(
    const EpochSnapshot& snapshot, const core::DetectorConfig& config);

/// Optimized-method sweep: all ordered (i, j) from high-reputed rows with
/// the O(1) Formula (2) / joint-complement predicates; a mutual pair
/// surfaces from both sides and canonicalize() dedups. Returns the
/// canonicalized report.
[[nodiscard]] core::DetectionReport sweep_optimized(
    const EpochSnapshot& snapshot, const core::DetectorConfig& config);

}  // namespace p2prep::detect
