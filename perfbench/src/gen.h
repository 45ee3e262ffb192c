// Seeded rating-stream generator with planted colluding pairs.
//
// Organic ratings follow one of the repo's two trace models, with their
// default parameters read from the config structs:
//  * kOverstock (trace::OverstockTraceConfig, trace/overstock.cpp): a
//    transaction has a uniform buyer and a Zipf-popular seller (skew
//    popularity_skew, ranks scattered over ids by a seeded permutation so
//    popularity is spread over shards); the buyer rates the seller and the
//    seller rates back with probability 0.9. Organic ids are [0, organic).
//  * kAmazon (trace::AmazonTraceConfig, trace/amazon.cpp): num_sellers
//    sellers in three quality bands, each drawing transactions in
//    proportion to its band's daily mean, and num_buyers uniform buyers
//    who rate the seller; sellers never rate buyers. Sellers are ids
//    [0, num_sellers), buyers follow. The model's injected collusion
//    campaigns are left out: the planted pairs below replace them.
// A rating is neutral with probability neutral_prob, else positive with
// the organic quality (organic_quality, or the seller's band quality).
// The market's structure (the popularity permutation, the seller bands) is
// drawn from the model config's own seed, so it is the same in every run;
// the benchmark seed drives the traffic and the planted pairs.
//
// Planted pairs live in a reserved id range that organic traffic never
// rates. Each planted node receives a few negative outside ratings from
// organic raters and then alternating positive ratings from its partner.
// The generator tallies the totals it emitted and stops the pair at the
// first rating after which C1 and both the Basic
// (core::basic_directional) and Optimized (core::optimized_directional)
// predicates hold in both directions; that rating is the pair's completing
// rating. A pair that never completes is a generator bug and throws before
// anything is sent.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.h"
#include "rating/types.h"
#include "service/shard_map.h"
#include "trace/amazon.h"
#include "trace/overstock.h"
#include "util/rng.h"

namespace perfbench {

using p2prep::rating::NodeId;
using p2prep::rating::Rating;

enum class Market : std::uint8_t { kOverstock, kAmazon };

struct GenParams {
  Market market = Market::kOverstock;
  /// Organic ids are [0, organic); with kAmazon this must equal
  /// amazon.num_sellers + amazon.num_buyers.
  std::size_t organic = 0;
  std::size_t reserved = 0;  ///< Planted ids are [organic, organic + reserved).
  /// Organic traffic parameters; the workloads keep the defaults.
  p2prep::trace::OverstockTraceConfig overstock{};
  p2prep::trace::AmazonTraceConfig amazon{};
  std::uint32_t outside_ratings = 8;  ///< Negative, per planted node.
  p2prep::core::DetectorConfig detector{};
  std::uint64_t seed = 1;

  [[nodiscard]] std::size_t num_nodes() const { return organic + reserved; }
};

struct PlantedPair {
  NodeId a = 0;
  NodeId b = 0;
};

/// Where a pair's ratings sit in a chunk and which one completes it.
struct Completion {
  PlantedPair pair;
  std::size_t index = 0;  ///< Position of the completing rating.
};

struct Chunk {
  std::vector<Rating> ratings;
  std::vector<Completion> completions;
};

class Generator {
 public:
  /// With `map` set, pair members are drawn from the reserved ids by owner
  /// shard: both from one shard (`same_shard`, for per-shard epochs, which
  /// never compare nodes of different shards) or from neighbouring shards
  /// (cross-shard pairs for global epochs).
  Generator(GenParams params, std::optional<p2prep::service::ShardMap> map,
            bool same_shard);

  [[nodiscard]] const GenParams& params() const { return params_; }
  [[nodiscard]] std::size_t max_pairs() const;

  /// The `index`-th planted pair; the same index always yields the same
  /// pair. Throws std::out_of_range past max_pairs().
  [[nodiscard]] PlantedPair pair(std::size_t index) const;

  /// Appends one organic transaction's ratings (one or two) to `out`.
  void transaction(p2prep::util::Rng& rng, std::vector<Rating>& out) const;

  /// A random organic node that rates others (a user or a buyer).
  [[nodiscard]] NodeId rater(p2prep::util::Rng& rng) const;

  /// The pair's full, validated rating sequence (completing rating last).
  [[nodiscard]] std::vector<Rating> pair_ratings(const PlantedPair& p,
                                                 p2prep::util::Rng& rng) const;

  /// `organic_count` organic ratings with the pairs [first_pair,
  /// first_pair + pairs) interleaved. Each pair's ratings keep their order
  /// inside a window of `window` (a fraction of the chunk) and the pairs'
  /// completions fall uniformly in [lo, hi] of the chunk. Ticks run from
  /// `t0`. Deterministic in (chunk_seed, arguments).
  [[nodiscard]] Chunk chunk(std::uint64_t chunk_seed,
                            std::size_t organic_count, std::size_t first_pair,
                            std::size_t pairs, double lo, double hi,
                            double window, p2prep::rating::Tick t0) const;

 private:
  GenParams params_;
  std::vector<NodeId> rank_to_id_;  ///< kOverstock: Zipf rank -> organic id.
  /// kAmazon: per seller, its organic quality and the cumulative share of
  /// transactions up to and including it.
  std::vector<double> seller_quality_;
  std::vector<double> seller_cdf_;
  /// Reserved ids grouped by owner shard (one group without a map).
  std::vector<std::vector<NodeId>> reserved_by_shard_;
  bool same_shard_;
};

}  // namespace perfbench
