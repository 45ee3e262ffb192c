#include "detect/pair_sweep.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/formula.h"
#include "core/predicates.h"

namespace p2prep::detect {

namespace {

/// Splits [0, n) into contiguous ranges sized for the executor's
/// concurrency (over-decomposed 4x for load balance) and runs
/// `range_fn(begin, end, sub_report)` per range, merging sub-reports in
/// range order.
core::DetectionReport sweep_ranges(
    const EpochSnapshot& snapshot, std::size_t n,
    const std::function<void(rating::NodeId, rating::NodeId,
                             core::DetectionReport&)>& range_fn) {
  std::size_t tasks = 1;
  if (snapshot.executor != nullptr) {
    tasks = std::min<std::size_t>(
        std::max<std::size_t>(1, snapshot.executor->concurrency() * 4),
        std::max<std::size_t>(1, n));
  }
  std::vector<core::DetectionReport> parts(tasks);
  const std::size_t chunk = (n + tasks - 1) / tasks;
  run_tasks(snapshot.executor, tasks, [&](std::size_t t) {
    const auto begin = static_cast<rating::NodeId>(t * chunk);
    const auto end =
        static_cast<rating::NodeId>(std::min(n, (t + 1) * chunk));
    if (begin < end) range_fn(begin, end, parts[t]);
  });

  core::DetectionReport report = std::move(parts.front());
  for (std::size_t t = 1; t < parts.size(); ++t) {
    report.pairs.insert(report.pairs.end(), parts[t].pairs.begin(),
                        parts[t].pairs.end());
    report.cost += parts[t].cost;
  }
  report.canonicalize();
  return report;
}

/// Prefix count of the snapshot's high-reputed ids, each read from its
/// owner matrix: high_below[x] = |{j < x : R_j > T_R}|. Built once per
/// sweep, it answers "is j high-reputed" and "how many high-reputed ids
/// lie below i" in O(1), which is what the bulk charges count with.
std::vector<std::uint32_t> high_prefix(const EpochSnapshot& snapshot,
                                       std::size_t n) {
  std::vector<std::uint32_t> high_below(n + 1, 0);
  for (rating::NodeId j = 0; j < n; ++j) {
    high_below[j + 1] =
        high_below[j] + (snapshot.matrix_of(j).high_reputed(j) ? 1 : 0);
  }
  return high_below;
}

/// One walk over row i's stored cells other than i: how many there are
/// (S_i — n - 1 on the dense backend, the row's nnz on the sparse one),
/// their sum, the sum of the frequent ones (N_(i,k) >= T_N), and whether
/// `partner`'s cell was among them. Every per-pair quantity the paper's
/// element-by-element row scans produce follows from these in O(1).
/// `visit(k, stats)` sees each of those cells too, so a caller that also
/// needs them walks the row once.
struct RowScan {
  std::uint64_t stored = 0;
  rating::PairStats sum;
  rating::PairStats frequent;
  bool partner_stored = false;
};

template <typename Visit>
RowScan scan_row(const rating::RatingMatrix& m, rating::NodeId i,
                 rating::NodeId partner, const core::DetectorConfig& cfg,
                 Visit&& visit) {
  RowScan row;
  m.for_each_cell(i, [&](rating::NodeId k, const rating::PairStats& stats) {
    if (k == i) return;
    ++row.stored;
    row.sum += stats;
    if (stats.total >= cfg.frequency_min) row.frequent += stats;
    if (k == partner) row.partner_stored = true;
    visit(k, stats);
  });
  // The walk and the aggregates the matrix carries must agree.
  assert(row.sum == m.totals(i));
  assert(m.frequency_threshold() != cfg.frequency_min ||
         row.frequent == m.frequent_totals(i));
  return row;
}

RowScan scan_row(const rating::RatingMatrix& m, rating::NodeId i,
                 rating::NodeId partner, const core::DetectorConfig& cfg) {
  return scan_row(m, i, partner, cfg,
                  [](rating::NodeId, const rating::PairStats&) {});
}

/// The Basic method's complement N_(i,-j) / N+_(i,-j) from a scan of row
/// i: the row minus partner j's cell, and in joint-complement mode minus
/// every frequent rater as well (DetectorConfig docs). The paper scans
/// the row element by element for it, one scan per stored cell other
/// than i and j — S_i - [j stored] — which the caller charges.
rating::PairStats complement_of(const RowScan& row,
                                const rating::PairStats& cell,
                                const core::DetectorConfig& cfg) {
  if (!cfg.joint_complement) return row.sum - cell;
  rating::PairStats complement = row.sum - row.frequent;
  if (cell.total < cfg.frequency_min) complement -= cell;
  return complement;
}

void require_positive_tn(const core::DetectorConfig& cfg) {
  // C4 then passes only on stored cells, which is what lets the sweeps
  // walk stored cells and charge every other partner in bulk.
  if (cfg.frequency_min == 0)
    throw std::invalid_argument(
        "pair sweep: T_N (frequency_min) must be > 0");
}

}  // namespace

core::DetectionReport sweep_basic(const EpochSnapshot& snapshot,
                                  const core::DetectorConfig& cfg) {
  require_positive_tn(cfg);
  const std::size_t n = snapshot.num_nodes();
  const std::vector<std::uint32_t> high_below = high_prefix(snapshot, n);
  const auto high = [&](rating::NodeId j) {
    return high_below[j + 1] != high_below[j];
  };
  // Partners that fail the mutual R_j gate: every low-reputed id.
  const std::uint64_t gated = cfg.require_mutual ? n - high_below[n] : 0;

  // One-directional deep check: does n_i's high reputation look like it
  // is mainly caused by n_j's frequent deviating ratings? The complement
  // scan is charged before the cheap C4/C3 gates, matching the per-pair
  // element count Proposition 4.1 charges; the verdict is unaffected (the
  // predicate is a pure conjunction).
  const auto basic_dir = [&](core::DetectionReport& report,
                             const rating::RatingMatrix& mi, rating::NodeId i,
                             rating::NodeId j, const RowScan& row,
                             bool j_stored, double& positive_fraction,
                             double& complement_fraction) {
    const rating::PairStats& cell = mi.cell(i, j);
    report.cost.add_scan();  // read a_ij
    report.cost.add_scan(row.stored - (j_stored ? 1 : 0));  // complement
    report.cost.add_check();
    if (cell.total < cfg.frequency_min) return false;  // C4
    positive_fraction = cell.positive_fraction();
    report.cost.add_check();
    if (positive_fraction < cfg.positive_fraction_min) return false;  // C3
    report.cost.add_check();
    const rating::PairStats complement = complement_of(row, cell, cfg);
    if (complement.total == 0) {
      complement_fraction = 0.0;
      return cfg.empty_complement_is_suspicious;
    }
    complement_fraction = complement.positive_fraction();
    return complement_fraction < cfg.complement_fraction_max;  // C2
  };

  return sweep_ranges(
      snapshot, n,
      [&](rating::NodeId begin, rating::NodeId end,
          core::DetectionReport& report) {
        std::vector<rating::NodeId> frequent;  // reused across rows
        for (rating::NodeId i = begin; i < end; ++i) {
          const rating::RatingMatrix& mi = snapshot.matrix_of(i);
          report.cost.add_check();
          if (!high(i)) continue;  // C1

          // Partners examined from this row: every j != i except a lower
          // high-reputed one ("after an a_ij is checked, the manager
          // marks a_ij and a_ji" — that pair was settled from j's row, at
          // no charge here). Each costs an R_j read and check; a partner
          // that passes the mutual gate (in one-sided mode every one: a
          // Sybil booster never earns reputation and must not be exempted
          // by its own obscurity) then gets a_ij read, the complement
          // scanned and C4 checked. Only a frequent cell can pass C4.
          const std::uint64_t examined = n - 1 - high_below[i];
          std::uint64_t infrequent_stored = 0;
          frequent.clear();
          const RowScan row = scan_row(
              mi, i, rating::kInvalidNode, cfg,
              [&](rating::NodeId k, const rating::PairStats& stats) {
                if (k < i && high(k)) return;
                if (cfg.require_mutual && !high(k)) return;
                if (stats.total >= cfg.frequency_min)
                  frequent.push_back(k);
                else
                  ++infrequent_stored;
              });
          // Bulk charge: every examined partner its R_j read and check;
          // each non-frequent one past the gate also its a_ij read, its
          // complement scan (row.stored - [j stored]) and the failing C4.
          const std::uint64_t failing_c4 = examined - gated - frequent.size();
          report.cost.add_scan(examined + failing_c4 * (1 + row.stored) -
                               infrequent_stored);
          report.cost.add_check(examined + failing_c4);

          for (const rating::NodeId j : frequent) {
            const rating::RatingMatrix& mj = snapshot.matrix_of(j);
            core::PairEvidence ev;
            ev.first = i;
            ev.second = j;
            ev.ratings_to_first = mi.cell(i, j).total;
            ev.ratings_to_second = mj.cell(j, i).total;
            ev.global_rep_first = mi.global_reputation(i);
            ev.global_rep_second = mj.global_reputation(j);
            if (!basic_dir(report, mi, i, j, row, true,
                           ev.positive_fraction_first,
                           ev.complement_fraction_first))
              continue;
            // n_i's high reputation is mainly caused by n_j's deviating
            // ratings; repeat the process from n_j's line.
            if (cfg.require_mutual) {
              const RowScan row_j = scan_row(mj, j, i, cfg);
              if (!basic_dir(report, mj, j, i, row_j, row_j.partner_stored,
                             ev.positive_fraction_second,
                             ev.complement_fraction_second))
                continue;
            }
            report.pairs.push_back(ev);
          }
        }
      });
}

core::DetectionReport sweep_optimized(const EpochSnapshot& snapshot,
                                      const core::DetectorConfig& cfg) {
  require_positive_tn(cfg);
  const std::size_t n = snapshot.num_nodes();

  const auto optimized_dir = [&](core::DetectionReport& report,
                                 const rating::RatingMatrix& mi,
                                 rating::NodeId i, rating::NodeId j,
                                 std::optional<RowScan>& row) {
    const rating::PairStats& cell = mi.cell(i, j);
    report.cost.add_scan();  // read a_ij <ID_i, R_i, N_(i,j), N+_(i,j)>
    report.cost.add_check();
    if (cell.total < cfg.frequency_min) return false;  // C4
    if (!cfg.joint_complement) {
      // Paper-literal Formula (2): only R_i, N_i and N_(i,j) are read.
      report.cost.add_check();
      return core::formula2_satisfied(
          static_cast<double>(mi.window_reputation(i)),
          cfg.positive_fraction_min, cfg.complement_fraction_max,
          mi.totals(i).total, cell.total, cfg.inclusive_bounds);
    }
    // Joint complement: C3 from the cell, C2 from the row's frequent-rater
    // aggregate — one O(1) read when the matrix maintains it for T_N.
    report.cost.add_check();
    if (!core::positive_fraction_ok(cell, cfg)) return false;  // C3
    rating::PairStats frequent;
    if (mi.frequency_threshold() == cfg.frequency_min) {
      report.cost.add_scan();
      frequent = mi.frequent_totals(i);
    } else {
      // A matrix built without (or with another) frequency threshold:
      // recompute the aggregate from the row and charge its true cost,
      // the row's stored cells other than i. A deployed manager never
      // takes this path; it keeps standalone matrices usable.
      if (!row) row = scan_row(mi, i, rating::kInvalidNode, cfg);
      report.cost.add_scan(row->stored);
      frequent = row->frequent;
    }
    report.cost.add_check();
    return core::complement_ok(mi.totals(i) - frequent, cfg);  // C2
  };

  return sweep_ranges(
      snapshot, n,
      [&](rating::NodeId begin, rating::NodeId end,
          core::DetectionReport& report) {
        // All ordered (i, j); a mutual pair surfaces from both sides and
        // canonicalize() dedups.
        std::vector<rating::NodeId> frequent;  // reused across rows
        for (rating::NodeId i = begin; i < end; ++i) {
          const rating::RatingMatrix& mi = snapshot.matrix_of(i);
          report.cost.add_check();
          if (!mi.high_reputed(i)) continue;  // C1
          frequent.clear();
          mi.append_frequent_raters(i, cfg.frequency_min, frequent);
          // Every other partner fails C4 on its a_ij read: one scan and
          // one check each.
          report.cost.add_scan(n - 1 - frequent.size());
          report.cost.add_check(n - 1 - frequent.size());

          std::optional<RowScan> row;
          for (const rating::NodeId j : frequent) {
            if (!optimized_dir(report, mi, i, j, row)) continue;
            const rating::RatingMatrix& mj = snapshot.matrix_of(j);
            // Symmetric side: n_j must be high-reputed and satisfy the
            // same check against n_i (skipped in one-sided mode).
            if (cfg.require_mutual) {
              report.cost.add_check();
              if (!mj.high_reputed(j)) continue;
              std::optional<RowScan> row_j;
              if (!optimized_dir(report, mj, j, i, row_j)) continue;
            }
            core::PairEvidence ev;
            ev.first = i;
            ev.second = j;
            ev.ratings_to_first = mi.cell(i, j).total;
            ev.ratings_to_second = mj.cell(j, i).total;
            ev.positive_fraction_first = mi.cell(i, j).positive_fraction();
            ev.positive_fraction_second = mj.cell(j, i).positive_fraction();
            // Evidence-only complement fractions from the row totals (not
            // part of the method's cost).
            const rating::PairStats comp_i = mi.totals(i) - mi.cell(i, j);
            const rating::PairStats comp_j = mj.totals(j) - mj.cell(j, i);
            ev.complement_fraction_first = comp_i.positive_fraction();
            ev.complement_fraction_second = comp_j.positive_fraction();
            ev.global_rep_first = mi.global_reputation(i);
            ev.global_rep_second = mj.global_reputation(j);
            report.pairs.push_back(ev);
          }
        }
      });
}

}  // namespace p2prep::detect
