// The reputation manager's n x n rating matrix (paper Sec. IV-B).
//
// Row i describes ratee n_i; cell (i, j) holds the PairStats of rater n_j
// for n_i over the current update window T — exactly the paper's
// a_ij = <ID_i, R_i, N_(i,j), N+_(i,j)>. Per the paper, rows are only
// "non-empty" for high-reputed nodes (R_i > T_R); we keep all rows
// allocated but flag which are live, which is equivalent and lets the
// detectors charge the same costs the paper's algorithm would.
//
// Two storage backends implement the same cell contract (MatrixBackend):
//  * kDense  — one contiguous n x n block (util::Matrix). Element access
//    and full-row scans cost exactly what the paper's complexity analysis
//    charges, so this is the reference ("oracle") representation.
//  * kSparse — one flat open-addressing table of non-empty cells per row:
//    (rater, PairStats) slots stored inline, power-of-two capacity, linear
//    probing, grown at 3/4 load. A slot whose total is 0 is empty, so a
//    cell is stored exactly when it holds ratings. Real rating graphs are
//    extremely sparse (the Amazon/Overstock traces), so this cuts the
//    footprint from O(n^2) to O(nnz) — 16 B per slot, 21-43 B per cell
//    across the load range — while producing bit-identical detection
//    results; tests/differential/ proves the equivalence against the
//    dense oracle. Sharded service managers default to this backend.
//
// Detector hot paths consume rows through the backend-agnostic visitors
// (for_each_cell / cell_or_null) instead of indexing a dense span, so a
// row walk is O(stored cells of the row): n on the dense oracle (the
// paper's cost), row nnz over contiguous slots on the sparse backend.
//
// Two reputation views coexist on purpose:
//  * `global_reputation` — whatever the host reputation system computed
//    (e.g. EigenTrust scores). This is what T_R filters on (C1).
//  * `window_reputation` — the summation value R_i = N+_i - N-_i over the
//    same window the cells cover. Formula (1)/(2) of the paper is derived
//    under this model, so the Optimized detector evaluates its bound
//    against this view; quantities stay self-consistent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rating/pair_stats.h"
#include "rating/store.h"
#include "rating/types.h"
#include "util/matrix.h"

namespace p2prep::rating {

/// Storage representation of a RatingMatrix. Every detector verdict is
/// identical across backends (differential-tested); only memory footprint
/// and per-row scan cost differ.
enum class MatrixBackend : std::uint8_t {
  kDense,   ///< Contiguous n x n cells — the paper-cost oracle.
  kSparse,  ///< Flat hash row of non-empty cells — O(nnz) memory.
};

[[nodiscard]] constexpr std::string_view to_string(MatrixBackend b) noexcept {
  return b == MatrixBackend::kDense ? "dense" : "sparse";
}

/// Cells mutated since the last take_dirty_cells() call, for incremental
/// consumers (the streaming ring detector caches derived per-cell state
/// between epochs and re-derives only these). `complete == false` means
/// the delta does not cover every mutation since the last take (tracking
/// was just enabled, or clear_window() wiped cells wholesale) — the
/// consumer must rebuild from the full matrix instead.
struct DirtyCells {
  bool complete = false;
  /// (ratee, rater) pairs, ascending — deterministic consumption order.
  std::vector<std::pair<NodeId, NodeId>> cells;
};

class RatingMatrix {
 public:
  RatingMatrix() = default;
  explicit RatingMatrix(std::size_t num_nodes,
                        MatrixBackend backend = MatrixBackend::kDense);

  /// Snapshots the window horizon of `store` into a matrix with the given
  /// backend. `global_reps[i]` is the host system's reputation for node i
  /// (its size must equal store.num_nodes()); rows with
  /// global_reps[i] > high_rep_threshold are flagged live. When
  /// `frequency_threshold` > 0, each row also carries the aggregate of its
  /// frequent raters' cells (every rater with N_(i,k) >= frequency_threshold)
  /// — the state a deployed manager keeps incrementally and the Optimized
  /// detector's joint-complement test reads in O(1).
  static RatingMatrix build(const RatingStore& store,
                            std::span<const double> global_reps,
                            double high_rep_threshold,
                            std::uint32_t frequency_threshold = 0,
                            MatrixBackend backend = MatrixBackend::kDense);

  [[nodiscard]] MatrixBackend backend() const noexcept { return backend_; }

  [[nodiscard]] std::size_t size() const noexcept { return meta_.size(); }

  /// Number of live (high-reputed) rows — the paper's m.
  [[nodiscard]] std::size_t high_reputed_count() const noexcept {
    return high_count_;
  }

  [[nodiscard]] bool high_reputed(NodeId i) const {
    return meta_.at(i).high_reputed;
  }
  [[nodiscard]] double global_reputation(NodeId i) const {
    return meta_.at(i).global_rep;
  }
  /// Window totals N_i / N+_i / N-_i for ratee i.
  [[nodiscard]] const PairStats& totals(NodeId i) const {
    return meta_.at(i).totals;
  }
  /// Summation reputation over the window: N+_i - N-_i.
  [[nodiscard]] std::int64_t window_reputation(NodeId i) const {
    return meta_.at(i).totals.reputation_delta();
  }

  /// Aggregate over row i's frequent raters (N_(i,k) >= the matrix's
  /// frequency threshold). Zero stats when no threshold was configured.
  [[nodiscard]] const PairStats& frequent_totals(NodeId i) const {
    return meta_.at(i).frequent_totals;
  }
  /// The frequency threshold the frequent aggregates were built with
  /// (0 = none).
  [[nodiscard]] std::uint32_t frequency_threshold() const noexcept {
    return frequency_threshold_;
  }

  /// a_(ratee,rater). On the sparse backend an absent cell reads as the
  /// empty aggregate, exactly like an untouched dense cell. O(1) on both
  /// backends — the Optimized method's per-pair read.
  [[nodiscard]] const PairStats& cell(NodeId ratee, NodeId rater) const {
    if (backend_ == MatrixBackend::kDense) return dense_(ratee, rater);
    const PairStats* stats = sparse_.at(ratee).find(rater);
    return stats == nullptr ? kEmptyCell : *stats;
  }

  /// Pointer to a_(ratee,rater) when the cell holds ratings (total > 0),
  /// nullptr otherwise — identical across backends.
  [[nodiscard]] const PairStats* cell_or_null(NodeId ratee,
                                              NodeId rater) const {
    const PairStats& stats = cell(ratee, rater);
    return stats.total > 0 ? &stats : nullptr;
  }

  /// Visits every STORED cell of row `ratee` as fn(rater, stats). The
  /// dense backend stores all n columns (including empty ones — the
  /// paper's full-row scan); the sparse backend stores only non-empty
  /// cells. Iteration order is unspecified; callers must accumulate
  /// order-independently. This is the detector hot-path row iterator.
  template <typename Fn>
  void for_each_cell(NodeId ratee, Fn&& fn) const {
    if (backend_ == MatrixBackend::kDense) {
      const auto row = dense_.row(ratee);
      for (NodeId k = 0; k < row.size(); ++k) fn(k, row[k]);
    } else {
      sparse_.at(ratee).for_each(fn);
    }
  }

  /// Appends to `out` every rater k != ratee whose cell in row `ratee`
  /// holds at least `min_total` >= 1 ratings, in for_each_cell order —
  /// the Optimized sweep's C4 pre-filter. Branch-free over the stored
  /// cells: which of them pass is data, not a predictable branch.
  void append_frequent_raters(NodeId ratee, std::uint32_t min_total,
                              std::vector<NodeId>& out) const {
    if (backend_ == MatrixBackend::kDense) {
      const auto row = dense_.row(ratee);
      append_if(out, row.size(), [&](std::size_t k) {
        return std::pair{static_cast<NodeId>(k),
                         unsigned{row[k].total >= min_total} &
                             unsigned{k != ratee}};
      });
    } else {
      sparse_.at(ratee).append_frequent(ratee, min_total, out);
    }
  }

  /// Visits the non-empty cells (total > 0) of row `ratee` in ascending
  /// rater order on BOTH backends — the deterministic enumeration used by
  /// snapshot/checkpoint/transfer paths, byte-stable across backends.
  template <typename Fn>
  void for_each_nonzero_cell(NodeId ratee, Fn&& fn) const {
    if (backend_ == MatrixBackend::kDense) {
      const auto row = dense_.row(ratee);
      for (NodeId k = 0; k < row.size(); ++k) {
        if (row[k].total > 0) fn(k, row[k]);
      }
    } else {
      std::vector<std::pair<NodeId, const PairStats*>> cells;
      const FlatRow& row = sparse_.at(ratee);
      cells.reserve(row.size());
      row.for_each([&cells](NodeId k, const PairStats& stats) {
        cells.emplace_back(k, &stats);
      });
      std::sort(cells.begin(), cells.end());
      for (const auto& [k, stats] : cells) fn(k, *stats);
    }
  }

  /// Row-range visitor: for_each_nonzero_cell over every row in
  /// [row_begin, row_end), ascending row then ascending rater order, as
  /// fn(ratee, rater, stats). Deterministic on both backends; the
  /// parallel detection passes partition a matrix into disjoint row
  /// ranges with this and merge the per-range results in range order.
  template <typename Fn>
  void for_each_nonzero_cell_in_rows(NodeId row_begin, NodeId row_end,
                                     Fn&& fn) const {
    row_end = std::min<NodeId>(row_end, static_cast<NodeId>(size()));
    for (NodeId i = row_begin; i < row_end; ++i) {
      for_each_nonzero_cell(i, [&](NodeId k, const PairStats& stats) {
        fn(i, k, stats);
      });
    }
  }

  /// Resident-memory estimate of this matrix (cells + row metadata + pair
  /// marks), in bytes. Exact for the dense backend and for the sparse
  /// backend's rows (row headers plus every allocated slot, empty ones
  /// included); the pair marks are modelled. The bench memory columns and
  /// the footprint regression test read this.
  [[nodiscard]] std::size_t approx_memory_bytes() const noexcept;

  /// What a dense matrix of `num_nodes` costs, without allocating it —
  /// the oracle the <5%-footprint regression check compares against.
  [[nodiscard]] static std::size_t dense_footprint_bytes(
      std::size_t num_nodes) noexcept;

  // --- Direct mutation (for tests and incremental managers) ---

  void set_global_reputation(NodeId i, double rep, double high_rep_threshold);
  void add_rating(NodeId ratee, NodeId rater, Score score);
  /// Configures the frequency threshold for the incremental frequent
  /// aggregates. Call before the first add_rating.
  void set_frequency_threshold(std::uint32_t t) noexcept {
    frequency_threshold_ = t;
  }

  /// Resets the update window in place: zeroes every cell, the per-row
  /// totals / frequent aggregates, and the checked-pair marks. Global
  /// reputations, high-reputed flags, and the frequency threshold are
  /// preserved — they belong to the host system, not the window. Rows
  /// whose totals are already zero are skipped, so the cost is
  /// proportional to the touched part of the matrix.
  void clear_window();

  /// Restores a window cell verbatim (checkpoint recovery): installs
  /// `stats` at (ratee, rater) and folds it into the row totals and, when
  /// frequent, the frequent aggregate. The target cell must be empty.
  /// Restoring empty stats (total 0) is a no-op, so a cell is stored
  /// exactly when it holds ratings.
  void restore_cell(NodeId ratee, NodeId rater, const PairStats& stats);

  /// Extracts row `ratee` for a shard handoff: returns its non-empty
  /// cells in ascending rater order (the same enumeration restore_cell
  /// reinstalls on the receiving matrix), then clears the cells and the
  /// row's totals / frequent aggregate. Global reputation and the
  /// high-reputed flag are left in place — every shard tracks those for
  /// all nodes. Dirty tracking cannot express a removal, so a non-empty
  /// take marks the next delta incomplete (full detector rebuild).
  [[nodiscard]] std::vector<std::pair<NodeId, PairStats>> take_row(
      NodeId ratee);

  // --- Dirty-cell tracking (incremental detector support) ---

  /// Starts recording which cells add_rating / restore_cell touch. The
  /// first take_dirty_cells() after enabling reports complete = false
  /// (mutations before this call were not observed). Off by default:
  /// tracking costs one hash insert per rating.
  void set_dirty_tracking(bool on);
  [[nodiscard]] bool dirty_tracking() const noexcept { return dirty_on_; }
  /// Drains the recorded delta: cells touched since the last take, in
  /// ascending (ratee, rater) order, plus whether the delta is complete
  /// (see DirtyCells). Resets the recorder to a complete empty delta.
  [[nodiscard]] DirtyCells take_dirty_cells();

  // --- Checked-pair marking (paper: "the manager marks a_ij and a_ji") ---

  [[nodiscard]] bool checked(NodeId i, NodeId j) const;
  /// Marks the unordered pair {i, j}: both a_ij and a_ji.
  void mark_checked(NodeId i, NodeId j);
  void clear_marks();

 private:
  struct RowMeta {
    double global_rep = 0.0;
    PairStats totals;
    PairStats frequent_totals;
    bool high_reputed = false;
  };

  /// Appends id for each of `count` positions whose pick(pos) = (id, keep)
  /// has keep == 1: every id is stored and the length advances by `keep`,
  /// so the loop carries no data-dependent branch.
  template <typename Pick>
  static void append_if(std::vector<NodeId>& out, std::size_t count,
                        Pick&& pick) {
    const std::size_t base = out.size();
    out.resize(base + count + 1);
    NodeId* dst = out.data() + base;
    std::size_t kept = 0;
    for (std::size_t pos = 0; pos < count; ++pos) {
      const auto [id, keep] = pick(pos);
      dst[kept] = id;
      kept += keep;
    }
    out.resize(base + kept);
  }

  /// One kSparse row: an open-addressing table of (rater, stats) slots
  /// stored inline. Capacity is 0 or a power of two; a rater's home slot
  /// is a multiplicative hash of its id and collisions probe linearly. A
  /// slot with stats.total == 0 is empty: cells only ever grow, and a row
  /// is emptied as a whole, so no tombstones are needed and a probe stops
  /// at the first empty slot. Load stays at most 3/4.
  class FlatRow {
   public:
    /// The stats of `rater`, or nullptr when the row holds none.
    [[nodiscard]] const PairStats* find(NodeId rater) const noexcept {
      if (size_ == 0) return nullptr;
      const std::uint32_t mask = capacity_ - 1;
      for (std::uint32_t s = home(rater, mask);; s = (s + 1) & mask) {
        const Slot& slot = slots_[s];
        if (slot.stats.total == 0) return nullptr;
        if (slot.rater == rater) return &slot.stats;
      }
    }

    /// The stats of `rater`, inserting an empty cell when absent. The
    /// caller must leave a fresh cell non-empty (total > 0), or the slot
    /// reads as free again while still counted.
    PairStats& find_or_insert(NodeId rater);

    /// Visits every non-empty cell as fn(rater, stats), in slot order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      if (size_ == 0) return;
      for (std::uint32_t s = 0; s < capacity_; ++s) {
        const Slot& slot = slots_[s];
        if (slot.stats.total != 0) fn(slot.rater, slot.stats);
      }
    }

    /// RatingMatrix::append_frequent_raters over this row. An empty slot
    /// (total 0) never passes, as min_total >= 1.
    void append_frequent(NodeId self, std::uint32_t min_total,
                         std::vector<NodeId>& out) const {
      append_if(out, capacity_, [&](std::size_t s) {
        const Slot& slot = slots_[s];
        return std::pair{slot.rater, unsigned{slot.stats.total >= min_total} &
                                         unsigned{slot.rater != self}};
      });
    }

    /// Empties every cell, keeping the allocation for the next window.
    void clear() noexcept;
    /// Empties the row and frees its slots.
    void release() noexcept;

    [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t heap_bytes() const noexcept {
      return static_cast<std::size_t>(capacity_) * sizeof(Slot);
    }

   private:
    struct Slot {
      NodeId rater = 0;
      PairStats stats;
    };

    static std::uint32_t home(NodeId rater, std::uint32_t mask) noexcept {
      return static_cast<std::uint32_t>(
                 (static_cast<std::uint64_t>(rater) * 0x9E3779B97F4A7C15ULL) >>
                 32) &
             mask;
    }
    /// Doubles the capacity (4 from empty) and re-homes every cell.
    void grow();
    /// Claims the first free slot on `rater`'s probe path; the rater must
    /// be absent and a free slot must exist.
    PairStats& claim(NodeId rater) noexcept;

    std::unique_ptr<Slot[]> slots_;
    std::uint32_t capacity_ = 0;
    std::uint32_t size_ = 0;
  };

  /// What an absent sparse cell reads as.
  static constexpr PairStats kEmptyCell{};

  /// Writable cell reference; creates the cell on the sparse backend, so
  /// the caller must leave it non-empty.
  PairStats& mutable_cell(NodeId ratee, NodeId rater);

  /// Records (ratee, rater) in the dirty set when tracking is on.
  void mark_dirty(NodeId ratee, NodeId rater) {
    if (dirty_on_)
      dirty_.insert((static_cast<std::uint64_t>(ratee) << 32) | rater);
  }

  MatrixBackend backend_ = MatrixBackend::kDense;
  util::Matrix<PairStats> dense_;  // kDense cells (empty under kSparse)
  std::vector<FlatRow> sparse_;    // kSparse cells (empty under kDense)
  std::vector<RowMeta> meta_;
  std::unordered_set<std::uint64_t> checked_;  // unordered-pair mark keys
  std::size_t high_count_ = 0;
  std::uint32_t frequency_threshold_ = 0;
  bool dirty_on_ = false;
  bool dirty_complete_ = false;  // delta covers everything since last take
  std::unordered_set<std::uint64_t> dirty_;  // (ratee << 32) | rater keys
};

}  // namespace p2prep::rating
