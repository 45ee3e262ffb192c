#include "gen.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/predicates.h"
#include "rating/pair_stats.h"
#include "util/distributions.h"

namespace perfbench {

using p2prep::rating::PairStats;
using p2prep::rating::Score;
using p2prep::rating::Tick;
using p2prep::util::Rng;

Generator::Generator(GenParams params,
                     std::optional<p2prep::service::ShardMap> map,
                     bool same_shard)
    : params_(params), same_shard_(same_shard) {
  if (params_.organic < 2 || params_.reserved < 2)
    throw std::invalid_argument("generator needs organic and reserved ids");
  // The market's structure (which ids are popular, seller bands) comes
  // from the trace model's own seed, so it is the same in every run and
  // the benchmark seed varies only the traffic drawn from it.
  Rng rng(params_.market == Market::kOverstock ? params_.overstock.seed
                                               : params_.amazon.seed);
  if (params_.market == Market::kOverstock) {
    rank_to_id_.resize(params_.organic);
    std::iota(rank_to_id_.begin(), rank_to_id_.end(), NodeId{0});
    for (std::size_t i = rank_to_id_.size() - 1; i > 0; --i)
      std::swap(rank_to_id_[i], rank_to_id_[rng.next_below(i + 1)]);
  } else {
    // Seller bands and daily means as trace/amazon.cpp draws them.
    const auto& m = params_.amazon;
    if (params_.organic != m.num_sellers + m.num_buyers || m.num_buyers < 2)
      throw std::invalid_argument(
          "amazon market needs organic = sellers + buyers");
    const auto n = static_cast<double>(m.num_sellers);
    const auto n_high = static_cast<std::size_t>(m.high_band_fraction * n);
    const auto n_med = static_cast<std::size_t>(m.medium_band_fraction * n);
    double total = 0.0;
    for (std::size_t s = 0; s < m.num_sellers; ++s) {
      double daily = 0.0;
      if (s < n_high) {
        seller_quality_.push_back(rng.uniform(0.94, 0.98));
        daily = m.high_band_daily_mean * rng.uniform(0.7, 1.3);
      } else if (s < n_high + n_med) {
        seller_quality_.push_back(rng.uniform(0.88, 0.91));
        daily = m.medium_band_daily_mean * rng.uniform(0.7, 1.3);
      } else {
        seller_quality_.push_back(rng.uniform(0.67, 0.79));
        daily = m.low_band_daily_mean * rng.uniform(0.5, 1.5);
      }
      total += daily;
      seller_cdf_.push_back(total);
    }
    for (double& c : seller_cdf_) c /= total;
  }

  const std::size_t groups = map ? map->num_shards() : 1;
  reserved_by_shard_.resize(groups);
  for (std::size_t k = 0; k < params_.reserved; ++k) {
    const auto id = static_cast<NodeId>(params_.organic + k);
    reserved_by_shard_[map ? map->owner(id) : 0].push_back(id);
  }
}

std::size_t Generator::max_pairs() const {
  std::size_t smallest = reserved_by_shard_.front().size();
  for (const auto& g : reserved_by_shard_) smallest = std::min(smallest, g.size());
  return reserved_by_shard_.size() * (smallest / 2);
}

PlantedPair Generator::pair(std::size_t index) const {
  if (index >= max_pairs())
    throw std::out_of_range("planted pair " + std::to_string(index) +
                            " exceeds the reserved id range");
  const std::size_t groups = reserved_by_shard_.size();
  const std::size_t g = index % groups;
  const std::size_t slot = 2 * (index / groups);
  const std::size_t h = same_shard_ ? g : (g + 1) % groups;
  return {reserved_by_shard_[g][slot], reserved_by_shard_[h][slot + 1]};
}

namespace {

/// Share of Overstock transactions the seller rates back
/// (trace/overstock.cpp).
constexpr double kReciprocate = 0.9;

Score organic_score(Rng& rng, double quality, double neutral_prob) {
  if (rng.chance(neutral_prob)) return Score::kNeutral;
  return rng.chance(quality) ? Score::kPositive : Score::kNegative;
}

}  // namespace

void Generator::transaction(Rng& rng, std::vector<Rating>& out) const {
  if (params_.market == Market::kAmazon) {
    const auto& m = params_.amazon;
    const auto it = std::upper_bound(seller_cdf_.begin(), seller_cdf_.end(),
                                     rng.next_double());
    const auto seller = static_cast<NodeId>(
        std::min<std::size_t>(it - seller_cdf_.begin(), m.num_sellers - 1));
    out.push_back({rater(rng), seller,
                   organic_score(rng, seller_quality_[seller], m.neutral_prob),
                   0});
    return;
  }
  const auto& m = params_.overstock;
  const NodeId seller =
      rank_to_id_[p2prep::util::zipf(rng, params_.organic, m.popularity_skew)];
  auto buyer = rater(rng);
  if (buyer == seller)
    buyer = static_cast<NodeId>((buyer + 1) % params_.organic);
  out.push_back({buyer, seller,
                 organic_score(rng, m.organic_quality, m.neutral_prob), 0});
  if (rng.chance(kReciprocate))
    out.push_back({seller, buyer,
                   organic_score(rng, m.organic_quality, m.neutral_prob), 0});
}

NodeId Generator::rater(Rng& rng) const {
  if (params_.market == Market::kAmazon)
    return static_cast<NodeId>(params_.amazon.num_sellers +
                               rng.next_below(params_.amazon.num_buyers));
  return static_cast<NodeId>(rng.next_below(params_.organic));
}

namespace {

/// C1 plus the Basic and Optimized one-directional predicates for a
/// planted node whose only frequent rater is its partner: `partner` is the
/// partner's cell, `outside` everything else the node received.
bool evidence_holds(const PairStats& partner, const PairStats& outside,
                    const p2prep::core::DetectorConfig& det) {
  const PairStats totals = partner + outside;
  const std::int64_t r = totals.reputation_delta();
  return static_cast<double>(r) > det.high_rep_threshold &&
         p2prep::core::basic_directional(partner, outside, det) &&
         p2prep::core::optimized_directional(partner, totals.total, r, det);
}

}  // namespace

std::vector<Rating> Generator::pair_ratings(const PlantedPair& p,
                                            Rng& rng) const {
  std::vector<Rating> out;
  PairStats out_a, out_b, partner_a, partner_b;  // Received by a / b.
  // Outside ratings are all negative: b = 0 keeps C2 true even if a retried
  // submit delivers one of them twice (the RPC client retries are
  // at-least-once), and duplicated partner ratings only strengthen C3/C4.
  for (std::uint32_t k = 0; k < params_.outside_ratings; ++k) {
    for (const NodeId ratee : {p.a, p.b}) {
      out.push_back({rater(rng), ratee, Score::kNegative, 0});
      (ratee == p.a ? out_a : out_b).add(Score::kNegative);
    }
  }
  const auto& det = params_.detector;
  const std::uint32_t limit = 4 * det.frequency_min + 64;
  for (std::uint32_t k = 0; k < limit; ++k) {
    const bool to_b = (k % 2) == 0;
    out.push_back({to_b ? p.a : p.b, to_b ? p.b : p.a, Score::kPositive, 0});
    (to_b ? partner_b : partner_a).add(Score::kPositive);
    if (evidence_holds(partner_a, out_a, det) &&
        evidence_holds(partner_b, out_b, det))
      return out;
  }
  throw std::logic_error("planted pair (" + std::to_string(p.a) + ", " +
                         std::to_string(p.b) +
                         ") never satisfies C1-C4 in both directions");
}

Chunk Generator::chunk(std::uint64_t chunk_seed, std::size_t organic_count,
                       std::size_t first_pair, std::size_t pairs, double lo,
                       double hi, double window, Tick t0) const {
  Rng rng(params_.seed * 0x9e3779b97f4a7c15ULL ^ chunk_seed);
  // Organic transactions are i.i.d., so their generation order is already
  // a random order. Each pair's ratings get evenly spaced increasing keys in
  // [0, 1) inside its window and are merged in at position key * size, so
  // the pairs interleave with organic traffic and keep their own order.
  std::vector<Rating> organic_part;
  organic_part.reserve(organic_count + 1);
  while (organic_part.size() < organic_count) transaction(rng, organic_part);
  organic_part.resize(organic_count);
  struct Keyed {
    double key;
    std::size_t pair;
    Rating r;
  };
  std::vector<Keyed> planted;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::vector<Rating> seq = pair_ratings(pair(first_pair + p), rng);
    const double end = lo + (hi - lo) * rng.next_double();
    const double start = std::max(0.0, end - window);
    for (std::size_t k = 0; k < seq.size(); ++k)
      planted.push_back({start + (end - start) * static_cast<double>(k + 1) /
                                     static_cast<double>(seq.size()),
                         p, seq[k]});
  }
  std::stable_sort(planted.begin(), planted.end(),
                   [](const Keyed& x, const Keyed& y) { return x.key < y.key; });

  Chunk c;
  if (planted.empty()) {
    c.ratings = std::move(organic_part);
    for (std::size_t i = 0; i < c.ratings.size(); ++i)
      c.ratings[i].time = t0 + i;
    return c;
  }
  const std::size_t total = organic_count + planted.size();
  c.ratings.reserve(total);
  std::vector<std::size_t> last_of_pair(pairs);
  std::size_t next_organic = 0;
  for (const Keyed& k : planted) {
    const auto at = static_cast<std::size_t>(k.key * static_cast<double>(total));
    while (c.ratings.size() < at && next_organic < organic_part.size())
      c.ratings.push_back(organic_part[next_organic++]);
    last_of_pair[k.pair] = c.ratings.size();
    c.ratings.push_back(k.r);
  }
  while (next_organic < organic_part.size())
    c.ratings.push_back(organic_part[next_organic++]);
  for (std::size_t i = 0; i < c.ratings.size(); ++i) c.ratings[i].time = t0 + i;
  for (std::size_t p = 0; p < pairs; ++p)
    c.completions.push_back({pair(first_pair + p), last_of_pair[p]});
  return c;
}

}  // namespace perfbench
