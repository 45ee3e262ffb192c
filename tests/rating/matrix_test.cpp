#include "rating/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace p2prep::rating {
namespace {

RatingStore populated_store() {
  RatingStore store(4);
  // Node 1 rated by 0 (2 pos), by 2 (1 neg); node 2 rated by 3 (1 pos).
  store.ingest({.rater = 0, .ratee = 1, .score = Score::kPositive, .time = 0});
  store.ingest({.rater = 0, .ratee = 1, .score = Score::kPositive, .time = 1});
  store.ingest({.rater = 2, .ratee = 1, .score = Score::kNegative, .time = 2});
  store.ingest({.rater = 3, .ratee = 2, .score = Score::kPositive, .time = 3});
  return store;
}

TEST(RatingMatrixTest, BuildCopiesWindowAggregates) {
  const RatingStore store = populated_store();
  const std::vector<double> reps{0.0, 0.5, 0.02, 0.1};
  const RatingMatrix m = RatingMatrix::build(store, reps, 0.05);

  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(m.cell(1, 0).total, 2u);
  EXPECT_EQ(m.cell(1, 0).positive, 2u);
  EXPECT_EQ(m.cell(1, 2).negative, 1u);
  EXPECT_EQ(m.cell(2, 3).positive, 1u);
  EXPECT_EQ(m.cell(0, 1).total, 0u);
  EXPECT_EQ(m.totals(1).total, 3u);
  EXPECT_EQ(m.window_reputation(1), 1);  // 2 pos - 1 neg
}

TEST(RatingMatrixTest, HighReputedFlagFollowsThreshold) {
  const RatingStore store = populated_store();
  const std::vector<double> reps{0.0, 0.5, 0.02, 0.1};
  const RatingMatrix m = RatingMatrix::build(store, reps, 0.05);

  EXPECT_FALSE(m.high_reputed(0));
  EXPECT_TRUE(m.high_reputed(1));
  EXPECT_FALSE(m.high_reputed(2));
  EXPECT_TRUE(m.high_reputed(3));
  EXPECT_EQ(m.high_reputed_count(), 2u);
  EXPECT_DOUBLE_EQ(m.global_reputation(1), 0.5);
}

TEST(RatingMatrixTest, ThresholdIsStrict) {
  RatingStore store(2);
  const std::vector<double> reps{0.05, 0.050001};
  const RatingMatrix m = RatingMatrix::build(store, reps, 0.05);
  EXPECT_FALSE(m.high_reputed(0));  // R > T_R, not >=
  EXPECT_TRUE(m.high_reputed(1));
}

TEST(RatingMatrixTest, SetGlobalReputationMaintainsHighCount) {
  RatingMatrix m(3);
  EXPECT_EQ(m.high_reputed_count(), 0u);
  m.set_global_reputation(0, 0.5, 0.05);
  EXPECT_EQ(m.high_reputed_count(), 1u);
  m.set_global_reputation(0, 0.6, 0.05);  // still high: count unchanged
  EXPECT_EQ(m.high_reputed_count(), 1u);
  m.set_global_reputation(0, 0.01, 0.05);
  EXPECT_EQ(m.high_reputed_count(), 0u);
}

TEST(RatingMatrixTest, AddRatingUpdatesCellAndTotals) {
  RatingMatrix m(3);
  m.add_rating(1, 0, Score::kPositive);
  m.add_rating(1, 0, Score::kNegative);
  m.add_rating(1, 2, Score::kPositive);
  EXPECT_EQ(m.cell(1, 0).total, 2u);
  EXPECT_EQ(m.totals(1).total, 3u);
  EXPECT_EQ(m.window_reputation(1), 1);
}

TEST(RatingMatrixTest, CellVisitorMatchesCells) {
  RatingMatrix m(3);
  m.add_rating(1, 2, Score::kPositive);
  // The dense backend stores all n columns; the visitor exposes them all.
  std::size_t visited = 0;
  m.for_each_cell(1, [&](NodeId k, const PairStats& stats) {
    ++visited;
    EXPECT_EQ(stats, m.cell(1, k));
  });
  EXPECT_EQ(visited, 3u);
  EXPECT_EQ(m.cell(1, 2).positive, 1u);
  EXPECT_EQ(m.cell(1, 0).total, 0u);
  EXPECT_NE(m.cell_or_null(1, 2), nullptr);
  EXPECT_EQ(m.cell_or_null(1, 0), nullptr);
}

TEST(RatingMatrixTest, SparseBackendStoresOnlyTouchedCells) {
  RatingMatrix m(4, MatrixBackend::kSparse);
  EXPECT_EQ(m.backend(), MatrixBackend::kSparse);
  m.add_rating(1, 0, Score::kPositive);
  m.add_rating(1, 0, Score::kNegative);
  m.add_rating(1, 3, Score::kPositive);

  std::size_t visited = 0;
  m.for_each_cell(1, [&](NodeId, const PairStats&) { ++visited; });
  EXPECT_EQ(visited, 2u);  // only the two touched cells are stored

  EXPECT_EQ(m.cell(1, 0).total, 2u);
  EXPECT_EQ(m.cell(1, 2).total, 0u);  // absent cell reads as empty
  EXPECT_EQ(m.cell_or_null(1, 2), nullptr);
  EXPECT_EQ(m.totals(1).total, 3u);
  EXPECT_EQ(m.window_reputation(1), 1);

  // Ordered enumeration: ascending rater, non-empty only.
  std::vector<NodeId> raters;
  m.for_each_nonzero_cell(
      1, [&](NodeId k, const PairStats&) { raters.push_back(k); });
  EXPECT_EQ(raters, (std::vector<NodeId>{0, 3}));

  m.clear_window();
  EXPECT_EQ(m.totals(1).total, 0u);
  EXPECT_EQ(m.cell(1, 0).total, 0u);
  visited = 0;
  m.for_each_cell(1, [&](NodeId, const PairStats&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(RatingMatrixTest, SparseFootprintBeatsDenseOracle) {
  constexpr std::size_t kNodes = 512;
  RatingMatrix sparse(kNodes, MatrixBackend::kSparse);
  RatingMatrix dense(kNodes, MatrixBackend::kDense);
  for (NodeId i = 0; i + 1 < kNodes; i += 2) {
    sparse.add_rating(i, i + 1, Score::kPositive);
    dense.add_rating(i, i + 1, Score::kPositive);
  }
  EXPECT_LT(sparse.approx_memory_bytes(), dense.approx_memory_bytes() / 10);
  // The analytic oracle is a floor of the measured dense footprint (the
  // measurement adds the pair-mark set's overhead on top).
  EXPECT_GE(dense.approx_memory_bytes(),
            RatingMatrix::dense_footprint_bytes(kNodes));
  EXPECT_LT(dense.approx_memory_bytes(),
            RatingMatrix::dense_footprint_bytes(kNodes) + 4096);
}

TEST(RatingMatrixTest, MarkCheckedIsSymmetric) {
  RatingMatrix m(3);
  EXPECT_FALSE(m.checked(0, 1));
  m.mark_checked(0, 1);
  EXPECT_TRUE(m.checked(0, 1));
  EXPECT_TRUE(m.checked(1, 0));
  EXPECT_FALSE(m.checked(0, 2));
  m.clear_marks();
  EXPECT_FALSE(m.checked(0, 1));
}

TEST(RatingMatrixTest, BuildFlagsNothingWhenAllLow) {
  RatingStore store(3);
  const std::vector<double> reps{0.0, 0.0, 0.0};
  const RatingMatrix m = RatingMatrix::build(store, reps, 0.05);
  EXPECT_EQ(m.high_reputed_count(), 0u);
}

// --- kSparse flat rows ------------------------------------------------------

/// Score pattern for rater k's t-th rating, so every cell's counts differ.
Score score_for(NodeId k, std::uint32_t t) {
  return (k + t) % 3 == 0 ? Score::kNegative
                          : ((k + t) % 3 == 1 ? Score::kPositive
                                              : Score::kNeutral);
}

/// Rates row `ratee` from every rater in `raters`, rater k (k % 4) + 1
/// times; returns the expected cells.
std::map<NodeId, PairStats> fill_row(RatingMatrix& m, NodeId ratee,
                                     const std::vector<NodeId>& raters) {
  std::map<NodeId, PairStats> expected;
  for (const NodeId k : raters) {
    for (std::uint32_t t = 0; t < k % 4 + 1; ++t) {
      m.add_rating(ratee, k, score_for(k, t));
      expected[k].add(score_for(k, t));
    }
  }
  return expected;
}

std::map<NodeId, PairStats> visited_cells(const RatingMatrix& m, NodeId i) {
  std::map<NodeId, PairStats> cells;
  m.for_each_cell(i, [&](NodeId k, const PairStats& stats) {
    EXPECT_TRUE(cells.emplace(k, stats).second) << "rater " << k << " twice";
  });
  return cells;
}

TEST(RatingMatrixTest, FlatRowGrowthAcrossRehashesKeepsEveryCell) {
  constexpr std::size_t kNodes = 5000;
  RatingMatrix m(kNodes, MatrixBackend::kSparse);
  // Strided raters (hash-unfriendly) across many doublings of the row.
  std::vector<NodeId> raters;
  for (NodeId k = 1; k < kNodes; k += 3) raters.push_back(k);
  std::size_t previous_bytes = m.approx_memory_bytes();
  std::map<NodeId, PairStats> expected;
  for (std::size_t chunk = 0; chunk < raters.size(); chunk += 97) {
    const std::vector<NodeId> part(
        raters.begin() + static_cast<std::ptrdiff_t>(chunk),
        raters.begin() + static_cast<std::ptrdiff_t>(
                             std::min(raters.size(), chunk + 97)));
    for (const auto& [k, stats] : fill_row(m, 0, part)) expected[k] = stats;
    // Every cell written so far survives each rehash.
    for (const auto& [k, stats] : expected) ASSERT_EQ(m.cell(0, k), stats);
    EXPECT_GE(m.approx_memory_bytes(), previous_bytes);
    previous_bytes = m.approx_memory_bytes();
  }
  EXPECT_EQ(visited_cells(m, 0), expected);
  PairStats sum;
  for (const auto& [k, stats] : expected) sum += stats;
  EXPECT_EQ(m.totals(0), sum);
  // Raters in the gaps were never stored.
  for (NodeId k = 2; k < kNodes; k += 3) EXPECT_EQ(m.cell(0, k).total, 0u);
  // The table doubles at 3/4 load, so it is never under 3/8 full: with
  // 16-B slots a row costs at most 16 / (3/8) B per cell.
  const std::size_t empty_bytes =
      RatingMatrix(kNodes, MatrixBackend::kSparse).approx_memory_bytes();
  EXPECT_LE(m.approx_memory_bytes() - empty_bytes,
            expected.size() * 16 * 8 / 3 + 16);
}

TEST(RatingMatrixTest, FlatRowAbsentRaterReadsEmpty) {
  RatingMatrix m(64, MatrixBackend::kSparse);
  // A row never written, and a row with cells whose probe paths the
  // absent raters cross.
  EXPECT_EQ(m.cell(5, 7).total, 0u);
  EXPECT_EQ(m.cell_or_null(5, 7), nullptr);
  EXPECT_TRUE(visited_cells(m, 5).empty());
  const auto expected = fill_row(m, 3, {1, 2, 4, 8, 16, 32, 33, 63});
  for (NodeId k = 0; k < 64; ++k) {
    if (expected.contains(k)) {
      EXPECT_EQ(m.cell(3, k), expected.at(k));
      EXPECT_NE(m.cell_or_null(3, k), nullptr);
    } else {
      EXPECT_EQ(m.cell(3, k), PairStats{}) << "rater " << k;
      EXPECT_EQ(m.cell_or_null(3, k), nullptr);
    }
  }
}

TEST(RatingMatrixTest, FlatRowVisitsExactlyTheNonEmptyCells) {
  constexpr std::size_t kNodes = 300;
  RatingMatrix sparse(kNodes, MatrixBackend::kSparse);
  RatingMatrix dense(kNodes, MatrixBackend::kDense);
  std::vector<NodeId> raters;
  for (NodeId k = 0; k < kNodes; ++k)
    if (k != 9 && (k * 7) % 5 != 0) raters.push_back(k);
  const auto expected = fill_row(sparse, 9, raters);
  fill_row(dense, 9, raters);
  const auto visited = visited_cells(sparse, 9);
  EXPECT_EQ(visited, expected);
  for (const auto& [k, stats] : visited) EXPECT_GT(stats.total, 0u);
  // The ordered enumeration agrees with the dense oracle's.
  std::vector<std::pair<NodeId, PairStats>> from_sparse, from_dense;
  sparse.for_each_nonzero_cell(9, [&](NodeId k, const PairStats& s) {
    from_sparse.emplace_back(k, s);
  });
  dense.for_each_nonzero_cell(9, [&](NodeId k, const PairStats& s) {
    from_dense.emplace_back(k, s);
  });
  EXPECT_EQ(from_sparse, from_dense);
  EXPECT_TRUE(std::is_sorted(
      from_sparse.begin(), from_sparse.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
}

TEST(RatingMatrixTest, AppendFrequentRatersKeepsExactlyTheFrequentCells) {
  constexpr std::size_t kNodes = 200;
  constexpr std::uint32_t kMin = 3;
  for (const MatrixBackend backend :
       {MatrixBackend::kSparse, MatrixBackend::kDense}) {
    RatingMatrix m(kNodes, backend);
    // Row 5: rater k holds k % 5 ratings, plus a frequent self-cell that
    // must not be kept; row 6: every stored cell is frequent; row 7 stays
    // empty.
    for (std::uint32_t r = 0; r < kMin; ++r)
      m.add_rating(5, 5, Score::kPositive);
    for (NodeId k = 0; k < kNodes; ++k) {
      for (NodeId r = 0; r < k % 5; ++r) m.add_rating(5, k, Score::kPositive);
      if (k % 3 == 0)
        for (std::uint32_t r = 0; r < kMin; ++r)
          m.add_rating(6, k, Score::kNegative);
    }
    for (const NodeId row : {NodeId{5}, NodeId{6}, NodeId{7}}) {
      std::vector<NodeId> expected;
      m.for_each_cell(row, [&](NodeId k, const PairStats& stats) {
        if (k != row && stats.total >= kMin) expected.push_back(k);
      });
      std::vector<NodeId> got{kNodes + 1};  // appended after, kept intact
      m.append_frequent_raters(row, kMin, got);
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got.front(), kNodes + 1);
      EXPECT_EQ(std::vector<NodeId>(got.begin() + 1, got.end()), expected)
          << "row " << row << " backend " << to_string(backend);
    }
  }
}

TEST(RatingMatrixTest, FlatRowTakeRowAndClearWindowThenReAdd) {
  constexpr std::size_t kNodes = 200;
  RatingMatrix m(kNodes, MatrixBackend::kSparse);
  m.set_frequency_threshold(3);
  std::vector<NodeId> raters;
  for (NodeId k = 10; k < 150; ++k) raters.push_back(k);
  const auto expected = fill_row(m, 4, raters);

  const auto taken = m.take_row(4);
  ASSERT_EQ(taken.size(), expected.size());
  EXPECT_TRUE(std::equal(taken.begin(), taken.end(), expected.begin(),
                         [](const auto& x, const auto& y) {
                           return x.first == y.first && x.second == y.second;
                         }));
  EXPECT_TRUE(visited_cells(m, 4).empty());
  EXPECT_EQ(m.totals(4), PairStats{});
  EXPECT_EQ(m.frequent_totals(4), PairStats{});
  EXPECT_EQ(m.cell(4, 10).total, 0u);

  // The emptied row takes new cells, and its frequent aggregate restarts.
  const auto again = fill_row(m, 4, {11, 13, 17});
  EXPECT_EQ(visited_cells(m, 4), again);
  PairStats frequent;
  for (const auto& [k, stats] : again)
    if (stats.total >= 3) frequent += stats;
  EXPECT_EQ(m.frequent_totals(4), frequent);

  fill_row(m, 5, raters);
  m.clear_window();
  EXPECT_TRUE(visited_cells(m, 4).empty());
  EXPECT_TRUE(visited_cells(m, 5).empty());
  EXPECT_EQ(m.cell(5, 12).total, 0u);
  const auto refilled = fill_row(m, 5, {12, 99, 149});
  EXPECT_EQ(visited_cells(m, 5), refilled);
  EXPECT_EQ(m.totals(5).total, 1u + 4u + 2u);  // (k % 4) + 1 each
}

TEST(RatingMatrixTest, RestoreCellKeepsStoredIffNonEmpty) {
  for (const MatrixBackend backend :
       {MatrixBackend::kSparse, MatrixBackend::kDense}) {
    RatingMatrix m(16, backend);
    m.set_frequency_threshold(2);
    m.restore_cell(3, 4, PairStats{});  // empty stats store nothing
    EXPECT_EQ(m.cell_or_null(3, 4), nullptr);
    EXPECT_EQ(m.totals(3), PairStats{});
    const PairStats stats{.total = 5, .positive = 4, .negative = 1};
    m.restore_cell(3, 6, stats);
    EXPECT_EQ(m.cell(3, 6), stats);
    EXPECT_EQ(m.totals(3), stats);
    EXPECT_EQ(m.frequent_totals(3), stats);
    std::size_t stored = 0;
    m.for_each_cell(3, [&](NodeId k, const PairStats& s) {
      if (backend == MatrixBackend::kSparse) {
        ++stored;
        EXPECT_EQ(k, 6u);
      }
      EXPECT_EQ(s.total > 0, k == 6u);
    });
    if (backend == MatrixBackend::kSparse) EXPECT_EQ(stored, 1u);
    // The empty restore left a slot free: a later rating from 4 lands.
    m.add_rating(3, 4, Score::kPositive);
    EXPECT_EQ(m.cell(3, 4).total, 1u);
    EXPECT_EQ(m.totals(3).total, 6u);
  }
}

}  // namespace
}  // namespace p2prep::rating
