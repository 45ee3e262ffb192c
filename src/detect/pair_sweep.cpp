#include "detect/pair_sweep.h"

#include <algorithm>
#include <cassert>
#include <functional>
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

/// The Basic method's complement sums N_(i,-j) and N+_(i,-j), computed the
/// paper's way: an element-by-element scan of row i charging one scan per
/// stored cell visited — n on the dense backend (the O(n) inner step that
/// makes Proposition 4.1's O(m n^2) bound tight), row nnz on the sparse
/// one. In joint-complement mode every frequent rater (cell total >= T_N)
/// is left out as well (DetectorConfig docs). The scan tests each cell
/// against T_N itself, so it needs no frequent aggregate in the matrix.
rating::PairStats scan_complement(const rating::RatingMatrix& mi,
                                  rating::NodeId i, rating::NodeId j,
                                  const core::DetectorConfig& cfg,
                                  util::CostCounter& cost) {
  rating::PairStats complement;
  mi.for_each_cell(i, [&](rating::NodeId k, const rating::PairStats& stats) {
    if (k == i || k == j) return;
    cost.add_scan();
    if (cfg.joint_complement && stats.total >= cfg.frequency_min) return;
    complement += stats;
  });
#ifndef NDEBUG
  // The scan and the row totals the matrix carries must agree.
  if (!cfg.joint_complement) {
    const rating::PairStats expected = mi.totals(i) - mi.cell(i, j);
    assert(complement.total == expected.total);
    assert(complement.positive == expected.positive);
  } else if (mi.frequency_threshold() == cfg.frequency_min) {
    rating::PairStats expected = mi.totals(i) - mi.frequent_totals(i);
    if (mi.cell(i, j).total < cfg.frequency_min) expected -= mi.cell(i, j);
    assert(complement.total == expected.total);
    assert(complement.positive == expected.positive);
  }
#endif
  return complement;
}

}  // namespace

core::DetectionReport sweep_basic(const EpochSnapshot& snapshot,
                                  const core::DetectorConfig& cfg) {
  const std::size_t n = snapshot.num_nodes();

  // One-directional deep check: does n_i's high reputation look like it
  // is mainly caused by n_j's frequent deviating ratings? The complement
  // scan runs before the cheap C4/C3 gates, matching the per-pair element
  // count Proposition 4.1 charges; the verdict is unaffected (the
  // predicate is a pure conjunction).
  const auto basic_dir = [&](core::DetectionReport& report,
                             const rating::RatingMatrix& mi, rating::NodeId i,
                             rating::NodeId j, double& positive_fraction,
                             double& complement_fraction) {
    const rating::PairStats& cell = mi.cell(i, j);
    report.cost.add_scan();  // read a_ij
    const rating::PairStats complement =
        scan_complement(mi, i, j, cfg, report.cost);
    report.cost.add_check();
    if (cell.total < cfg.frequency_min) return false;  // C4
    positive_fraction = cell.positive_fraction();
    report.cost.add_check();
    if (positive_fraction < cfg.positive_fraction_min) return false;  // C3
    report.cost.add_check();
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
        for (rating::NodeId i = begin; i < end; ++i) {
          const rating::RatingMatrix& mi = snapshot.matrix_of(i);
          report.cost.add_check();
          if (!mi.high_reputed(i)) continue;  // C1
          for (rating::NodeId j = 0; j < n; ++j) {
            // "After an a_ij is checked, the manager marks a_ij and a_ji":
            // a pair of two high-reputed nodes was settled from the lower
            // one's row, so it is skipped here at no charge.
            const rating::RatingMatrix& mj = snapshot.matrix_of(j);
            if (j == i || (j < i && mj.high_reputed(j))) continue;
            // The partner must itself be high-reputed (C1) before any deep
            // work — except in one-sided mode, where a Sybil booster never
            // earns reputation and must not be exempted by its own
            // obscurity. Reading R_j is an element access like the
            // Optimized method's N_(i,j) read.
            report.cost.add_scan();
            report.cost.add_check();
            if (cfg.require_mutual && !mj.high_reputed(j)) continue;

            core::PairEvidence ev;
            ev.first = i;
            ev.second = j;
            ev.ratings_to_first = mi.cell(i, j).total;
            ev.ratings_to_second = mj.cell(j, i).total;
            ev.global_rep_first = mi.global_reputation(i);
            ev.global_rep_second = mj.global_reputation(j);
            if (!basic_dir(report, mi, i, j, ev.positive_fraction_first,
                           ev.complement_fraction_first))
              continue;
            // n_i's high reputation is mainly caused by n_j's deviating
            // ratings; repeat the process from n_j's line.
            if (cfg.require_mutual &&
                !basic_dir(report, mj, j, i, ev.positive_fraction_second,
                           ev.complement_fraction_second))
              continue;
            report.pairs.push_back(ev);
          }
        }
      });
}

core::DetectionReport sweep_optimized(const EpochSnapshot& snapshot,
                                      const core::DetectorConfig& cfg) {
  const std::size_t n = snapshot.num_nodes();

  const auto optimized_dir = [&](core::DetectionReport& report,
                                 const rating::RatingMatrix& mi,
                                 rating::NodeId i, rating::NodeId j) {
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
      // the row's storage size. A deployed manager never takes this path;
      // it keeps standalone matrices usable.
      mi.for_each_cell(
          i, [&](rating::NodeId k, const rating::PairStats& stats) {
            if (k == i) return;
            report.cost.add_scan();
            if (stats.total >= cfg.frequency_min) frequent += stats;
          });
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
        for (rating::NodeId i = begin; i < end; ++i) {
          const rating::RatingMatrix& mi = snapshot.matrix_of(i);
          report.cost.add_check();
          if (!mi.high_reputed(i)) continue;  // C1
          for (rating::NodeId j = 0; j < n; ++j) {
            if (j == i) continue;
            if (!optimized_dir(report, mi, i, j)) continue;
            const rating::RatingMatrix& mj = snapshot.matrix_of(j);
            // Symmetric side: n_j must be high-reputed and satisfy the
            // same check against n_i (skipped in one-sided mode).
            if (cfg.require_mutual) {
              report.cost.add_check();
              if (!mj.high_reputed(j)) continue;
              if (!optimized_dir(report, mj, j, i)) continue;
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
