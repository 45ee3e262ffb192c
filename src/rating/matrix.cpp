#include "rating/matrix.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace p2prep::rating {

namespace {

/// Canonical key of the unordered pair {i, j} for the checked-pair marks.
constexpr std::uint64_t unordered_pair_key(NodeId i, NodeId j) noexcept {
  const NodeId lo = i < j ? i : j;
  const NodeId hi = i < j ? j : i;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

PairStats& RatingMatrix::FlatRow::find_or_insert(NodeId rater) {
  if (capacity_ != 0) {
    const std::uint32_t mask = capacity_ - 1;
    std::uint32_t s = home(rater, mask);
    for (; slots_[s].stats.total != 0; s = (s + 1) & mask) {
      if (slots_[s].rater == rater) return slots_[s].stats;
    }
    if ((static_cast<std::uint64_t>(size_) + 1) * 4 <=
        static_cast<std::uint64_t>(capacity_) * 3) {
      slots_[s].rater = rater;
      ++size_;
      return slots_[s].stats;
    }
  }
  grow();
  ++size_;
  return claim(rater);
}

PairStats& RatingMatrix::FlatRow::claim(NodeId rater) noexcept {
  const std::uint32_t mask = capacity_ - 1;
  std::uint32_t s = home(rater, mask);
  while (slots_[s].stats.total != 0) s = (s + 1) & mask;
  slots_[s].rater = rater;
  return slots_[s].stats;
}

void RatingMatrix::FlatRow::grow() {
  const std::uint32_t old_capacity = capacity_;
  std::unique_ptr<Slot[]> old = std::move(slots_);
  capacity_ = old_capacity == 0 ? 4 : old_capacity * 2;
  slots_ = std::make_unique<Slot[]>(capacity_);
  for (std::uint32_t s = 0; s < old_capacity; ++s) {
    if (old[s].stats.total != 0) claim(old[s].rater) = old[s].stats;
  }
}

void RatingMatrix::FlatRow::clear() noexcept {
  std::fill_n(slots_.get(), capacity_, Slot{});
  size_ = 0;
}

void RatingMatrix::FlatRow::release() noexcept {
  slots_.reset();
  capacity_ = 0;
  size_ = 0;
}

RatingMatrix::RatingMatrix(std::size_t num_nodes, MatrixBackend backend)
    : backend_(backend), meta_(num_nodes) {
  if (backend_ == MatrixBackend::kDense) {
    dense_ = util::Matrix<PairStats>(num_nodes, num_nodes);
  } else {
    sparse_.resize(num_nodes);
  }
}

RatingMatrix RatingMatrix::build(const RatingStore& store,
                                 std::span<const double> global_reps,
                                 double high_rep_threshold,
                                 std::uint32_t frequency_threshold,
                                 MatrixBackend backend) {
  const std::size_t n = store.num_nodes();
  assert(global_reps.size() == n);
  RatingMatrix m(n, backend);
  m.frequency_threshold_ = frequency_threshold;
  for (NodeId i = 0; i < n; ++i) {
    auto& meta = m.meta_[i];
    meta.global_rep = global_reps[i];
    meta.totals = store.window_totals(i);
    meta.high_reputed = global_reps[i] > high_rep_threshold;
    if (meta.high_reputed) ++m.high_count_;
    store.for_each_window_rater(
        i, [&m, i, frequency_threshold, &meta](NodeId rater,
                                               const PairStats& stats) {
          if (stats.total == 0) return;
          m.mutable_cell(i, rater) = stats;
          if (frequency_threshold > 0 && stats.total >= frequency_threshold)
            meta.frequent_totals += stats;
        });
  }
  return m;
}

PairStats& RatingMatrix::mutable_cell(NodeId ratee, NodeId rater) {
  assert(ratee < size() && rater < size());
  if (backend_ == MatrixBackend::kDense) return dense_(ratee, rater);
  return sparse_[ratee].find_or_insert(rater);
}

std::size_t RatingMatrix::approx_memory_bytes() const noexcept {
  std::size_t bytes = sizeof(RatingMatrix);
  bytes += meta_.capacity() * sizeof(RowMeta);
  if (backend_ == MatrixBackend::kDense) {
    bytes += dense_.rows() * dense_.cols() * sizeof(PairStats);
  } else {
    bytes += sparse_.capacity() * sizeof(FlatRow);
    for (const FlatRow& row : sparse_) bytes += row.heap_bytes();
  }
  bytes += checked_.bucket_count() * sizeof(void*);
  bytes += checked_.size() * (sizeof(std::uint64_t) + 2 * sizeof(void*));
  return bytes;
}

std::size_t RatingMatrix::dense_footprint_bytes(std::size_t num_nodes) noexcept {
  return sizeof(RatingMatrix) + num_nodes * sizeof(RowMeta) +
         num_nodes * num_nodes * sizeof(PairStats);
}

void RatingMatrix::set_global_reputation(NodeId i, double rep,
                                         double high_rep_threshold) {
  auto& meta = meta_.at(i);
  const bool was_high = meta.high_reputed;
  meta.global_rep = rep;
  meta.high_reputed = rep > high_rep_threshold;
  if (meta.high_reputed && !was_high) ++high_count_;
  if (!meta.high_reputed && was_high) --high_count_;
}

void RatingMatrix::add_rating(NodeId ratee, NodeId rater, Score score) {
  assert(ratee < size() && rater < size() && ratee != rater);
  PairStats& cell = mutable_cell(ratee, rater);
  cell.add(score);
  meta_[ratee].totals.add(score);
  mark_dirty(ratee, rater);
  // Incremental frequent-rater aggregate: when a cell crosses the
  // threshold its whole history joins the aggregate; afterwards each new
  // rating is added directly. This is exactly how a deployed manager
  // keeps the joint-complement state at O(1) per rating.
  if (frequency_threshold_ > 0 && cell.total >= frequency_threshold_) {
    if (cell.total == frequency_threshold_) {
      meta_[ratee].frequent_totals += cell;
    } else {
      meta_[ratee].frequent_totals.add(score);
    }
  }
}

void RatingMatrix::clear_window() {
  for (NodeId i = 0; i < size(); ++i) {
    auto& meta = meta_[i];
    if (meta.totals.total == 0) continue;  // row never touched this window
    if (backend_ == MatrixBackend::kDense) {
      auto row = dense_.row(i);
      std::fill(row.begin(), row.end(), PairStats{});
    } else {
      sparse_[i].clear();
    }
    meta.totals = PairStats{};
    meta.frequent_totals = PairStats{};
  }
  if (!checked_.empty()) clear_marks();
  if (dirty_on_) {
    // Cells were wiped wholesale without per-cell dirty records; the next
    // delta cannot describe the change, so force a full rebuild.
    dirty_.clear();
    dirty_complete_ = false;
  }
}

void RatingMatrix::restore_cell(NodeId ratee, NodeId rater,
                                const PairStats& stats) {
  assert(ratee < size() && rater < size() && ratee != rater);
  if (stats.total == 0) return;
  PairStats& cell = mutable_cell(ratee, rater);
  assert(cell.total == 0 && "restore_cell target must be empty");
  cell = stats;
  meta_[ratee].totals += stats;
  if (frequency_threshold_ > 0 && stats.total >= frequency_threshold_) {
    meta_[ratee].frequent_totals += stats;
  }
  mark_dirty(ratee, rater);
}

std::vector<std::pair<NodeId, PairStats>> RatingMatrix::take_row(
    NodeId ratee) {
  assert(ratee < size());
  std::vector<std::pair<NodeId, PairStats>> cells;
  for_each_nonzero_cell(ratee, [&cells](NodeId rater, const PairStats& stats) {
    cells.emplace_back(rater, stats);
  });
  if (cells.empty()) return cells;

  if (backend_ == MatrixBackend::kDense) {
    auto row = dense_.row(ratee);
    std::fill(row.begin(), row.end(), PairStats{});
  } else {
    sparse_[ratee].release();  // the row moves to another shard for good
  }
  meta_[ratee].totals = PairStats{};
  meta_[ratee].frequent_totals = PairStats{};
  if (dirty_on_) {
    // Drop stale dirty keys for the row; the removal itself is not
    // expressible as a delta, so force a full rebuild on the next take.
    std::erase_if(dirty_, [ratee](std::uint64_t key) {
      return static_cast<NodeId>(key >> 32) == ratee;
    });
    dirty_complete_ = false;
  }
  return cells;
}

void RatingMatrix::set_dirty_tracking(bool on) {
  dirty_on_ = on;
  dirty_complete_ = false;  // mutations before this call were not observed
  dirty_.clear();
}

DirtyCells RatingMatrix::take_dirty_cells() {
  DirtyCells result;
  result.complete = dirty_complete_;
  result.cells.reserve(dirty_.size());
  for (std::uint64_t key : dirty_) {
    result.cells.emplace_back(static_cast<NodeId>(key >> 32),
                              static_cast<NodeId>(key & 0xffffffffu));
  }
  std::sort(result.cells.begin(), result.cells.end());
  dirty_.clear();
  dirty_complete_ = true;
  return result;
}

bool RatingMatrix::checked(NodeId i, NodeId j) const {
  assert(i < size() && j < size());
  return checked_.contains(unordered_pair_key(i, j));
}

void RatingMatrix::mark_checked(NodeId i, NodeId j) {
  assert(i < size() && j < size());
  checked_.insert(unordered_pair_key(i, j));
}

void RatingMatrix::clear_marks() { checked_.clear(); }

}  // namespace p2prep::rating
