// Multi-threaded stress over the service's full surface: concurrent
// producers, a snapshot/metrics poller and epoch forcing, in both epoch
// scopes. These tests are the designated TSan workload
// (tools/run_tsan_service.sh builds with P2PREP_SANITIZE=thread and runs
// ctest -R ServiceConcurrency); the assertions themselves check the
// ingest-conservation invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"

namespace p2prep::service {
namespace {

using rating::Score;

constexpr std::size_t kN = 30;
constexpr int kProducers = 3;
constexpr int kPerProducer = 400;

ServiceConfig stress_config(EpochScope scope) {
  ServiceConfig cfg;
  cfg.num_nodes = kN;
  cfg.num_shards = 2;
  cfg.queue_capacity = 64;
  cfg.epoch_scope = scope;
  cfg.epoch_ratings = 150;
  cfg.detector_config.frequency_min = 20;
  cfg.record_reports = false;  // unbounded log growth is pointless here
  return cfg;
}

void run_stress(ReputationService& svc) {
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> sent{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&svc, &sent, p] {
      for (int k = 0; k < kPerProducer; ++k) {
        const auto rater = static_cast<rating::NodeId>((p * 7 + k) % kN);
        auto ratee = static_cast<rating::NodeId>((p * 11 + k * 3 + 1) % kN);
        if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % kN);
        if (svc.ingest({rater, ratee,
                        k % 3 == 0 ? Score::kNegative : Score::kPositive,
                        static_cast<rating::Tick>(k)}))
          sent.fetch_add(1);
      }
    });
  }

  std::thread poller([&svc, &done] {
    std::uint64_t polls = 0;
    while (!done.load()) {
      const ServiceSnapshot snap = svc.snapshot();
      double sum = 0.0;
      for (rating::NodeId i = 0; i < kN; ++i) sum += snap.reputation(i);
      (void)sum;
      (void)svc.metrics();  // exercise the metrics path under contention
      if (++polls % 16 == 0) svc.force_epoch();
      std::this_thread::yield();
    }
  });

  for (auto& t : producers) t.join();
  done.store(true);
  poller.join();
  svc.force_epoch();  // heavy dropping may starve the cadence trigger
  svc.drain();

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.ratings_accepted, sent.load());
  EXPECT_EQ(m.ratings_applied + m.ratings_dropped, m.ratings_accepted);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_GT(m.epochs_completed, 0u);
  svc.stop();
}

TEST(ServiceConcurrencyTest, GlobalScopeUnderContention) {
  ReputationService svc(stress_config(EpochScope::kGlobal));
  run_stress(svc);
}

TEST(ServiceConcurrencyTest, PerShardScopeUnderContention) {
  ReputationService svc(stress_config(EpochScope::kPerShard));
  run_stress(svc);
}

TEST(ServiceConcurrencyTest, PerShardDropOldestUnderContention) {
  ServiceConfig cfg = stress_config(EpochScope::kPerShard);
  cfg.queue_capacity = 8;
  cfg.overflow = OverflowPolicy::kDropOldest;
  ReputationService svc(cfg);
  run_stress(svc);
}

TEST(ServiceConcurrencyTest, StopRacesWithProducers) {
  ReputationService svc(stress_config(EpochScope::kGlobal));
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&svc, p] {
      for (int k = 0; k < kPerProducer; ++k) {
        const auto rater = static_cast<rating::NodeId>((p + k) % kN);
        const auto ratee = static_cast<rating::NodeId>((p + k + 1) % kN);
        if (!svc.ingest({rater, ratee, Score::kPositive,
                         static_cast<rating::Tick>(k)}))
          return;  // service stopped underneath us — expected
      }
    });
  }
  svc.stop();
  for (auto& t : producers) t.join();
  const ServiceMetrics m = svc.metrics();
  EXPECT_LE(m.ratings_applied, m.ratings_accepted);
}

// --- Batch admission (try_ingest_batch, the RPC server's ingest step) ---

using BatchEnd = ReputationService::BatchEnd;

bool valid_for(const rating::Rating& r, std::size_t n) {
  return r.rater != r.ratee && r.rater < n && r.ratee < n;
}

/// 40 valid ratings with one self-rating and one out-of-range id mixed
/// into the middle.
std::vector<rating::Rating> mixed_frame() {
  std::vector<rating::Rating> frame;
  for (int k = 0; k < 40; ++k) {
    const auto rater = static_cast<rating::NodeId>(k % kN);
    auto ratee = static_cast<rating::NodeId>((k * 7 + 3) % kN);
    if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % kN);
    frame.push_back({rater, ratee, Score::kPositive,
                     static_cast<rating::Tick>(k)});
    if (k == 4) frame.push_back({3, 3, Score::kPositive, 4});
    if (k == 6) frame.push_back({1, kN + 4, Score::kNegative, 6});
  }
  return frame;
}

TEST(ServiceConcurrencyTest, BatchStopsAtTheFirstFullQueueWithAnExactPrefix) {
  for (const EpochScope scope : {EpochScope::kPerShard, EpochScope::kGlobal}) {
    SCOPED_TRACE(scope == EpochScope::kGlobal ? "global" : "per-shard");
    ServiceConfig cfg = stress_config(scope);
    cfg.queue_capacity = 8;
    cfg.epoch_ratings = 1u << 30;
    ReputationService svc(cfg);
    const auto frame = mixed_frame();

    // Reference over empty queues: each shard takes `queue_capacity`
    // ratings, and the first rating for a full one ends the consumed
    // prefix — excluding every later rating for other shards too.
    std::vector<std::size_t> room(svc.num_shards(), cfg.queue_capacity);
    std::size_t cut = 0;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (; cut < frame.size(); ++cut) {
      if (!valid_for(frame[cut], kN)) {
        ++rejected;
        continue;
      }
      std::size_t& free = room[svc.shard_of(frame[cut].ratee)];
      if (free == 0) break;
      --free;
      ++accepted;
    }
    ASSERT_LT(cut, frame.size());  // the frame straddles a full queue
    ASSERT_EQ(rejected, 2u);       // both invalid ratings precede the cut

    // drain() empties the queues, so the batch's one depth snapshot is the
    // one the reference assumed, however fast the workers pop meanwhile.
    svc.drain();
    const auto first = svc.try_ingest_batch(frame, 1u << 20);
    EXPECT_EQ(first.accepted, accepted);
    EXPECT_EQ(first.rejected, rejected);
    EXPECT_EQ(first.end, BatchEnd::kBusy);
    EXPECT_EQ(svc.metrics().ratings_accepted, accepted);

    // Resubmitting from accepted + rejected, as the RPC client does,
    // applies every valid rating exactly once.
    std::size_t pos = first.accepted + first.rejected;
    while (pos < frame.size()) {
      svc.drain();
      const auto next = svc.try_ingest_batch(
          std::span(frame).subspan(pos), 1u << 20);
      ASSERT_GT(next.accepted + next.rejected, 0u);
      pos += next.accepted + next.rejected;
    }
    svc.drain();
    std::size_t valid = 0;
    for (const auto& r : frame) valid += valid_for(r, kN) ? 1 : 0;
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.ratings_applied, valid);
    EXPECT_EQ(m.ratings_accepted, valid);
    EXPECT_EQ(m.ratings_rejected, frame.size() - valid);
    svc.stop();
  }
}

TEST(ServiceConcurrencyTest, BatchChargesTheInflightBudgetForItsOwnRatings) {
  ReputationService svc(stress_config(EpochScope::kPerShard));
  const auto frame = mixed_frame();
  svc.drain();
  // Budget 5 over empty queues: five ratings go in, and the gate closes
  // before the self-rating after them is validated — the per-rating loop
  // checked the gate first, so that rating stays in the suffix.
  const auto a = svc.try_ingest_batch(frame, 5);
  EXPECT_EQ(a.accepted, 5u);
  EXPECT_EQ(a.rejected, 0u);
  EXPECT_EQ(a.end, BatchEnd::kBusy);
  ASSERT_FALSE(valid_for(frame[5], kN));
  svc.stop();
  EXPECT_EQ(svc.try_ingest_batch(frame, 5).end, BatchEnd::kStopped);
}

TEST(ServiceConcurrencyTest, DrainedServiceHasEveryAcceptedRatingInItsWal) {
  namespace fs = std::filesystem;
  for (const EpochScope scope : {EpochScope::kPerShard, EpochScope::kGlobal}) {
    SCOPED_TRACE(scope == EpochScope::kGlobal ? "global" : "per-shard");
    const fs::path dir =
        fs::temp_directory_path() /
        (std::string("p2prep_service_concurrency_wal_") +
         (scope == EpochScope::kGlobal ? "global" : "per_shard"));
    fs::remove_all(dir);
    ServiceConfig cfg = stress_config(scope);
    cfg.num_shards = 3;
    cfg.wal_dir = dir.string();  // no checkpoints: the WAL keeps it all
    ReputationService svc(cfg);

    // Concurrent producers, each submitting 64-rating frames and
    // resubmitting the unconsumed suffix after a shed.
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&svc, p] {
        std::vector<rating::Rating> frame;
        for (int k = 0; k < kPerProducer; ++k) {
          const auto rater = static_cast<rating::NodeId>((p * 7 + k) % kN);
          auto ratee = static_cast<rating::NodeId>((p * 11 + k * 3 + 1) % kN);
          if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % kN);
          frame.push_back({rater, ratee, Score::kPositive,
                           static_cast<rating::Tick>(k)});
        }
        std::span<const rating::Rating> left(frame);
        while (!left.empty()) {
          const auto a = svc.try_ingest_batch(
              left.first(std::min<std::size_t>(64, left.size())), 256);
          left = left.subspan(a.accepted + a.rejected);
          ASSERT_NE(a.end, BatchEnd::kStopped);
          if (a.end == BatchEnd::kBusy) std::this_thread::yield();
        }
      });
    }
    for (auto& t : producers) t.join();
    svc.drain();

    // Read the live service's files: drain() returned only after every
    // worker wrote its last batch, so each accepted rating is there.
    std::uint64_t logged = 0;
    for (std::size_t s = 0; s < svc.num_shards(); ++s) {
      char name[32];
      std::snprintf(name, sizeof(name), "shard-%03zu.wal", s);
      const WalReadResult wal = read_wal((dir / name).string());
      ASSERT_TRUE(wal.found);
      EXPECT_FALSE(wal.truncated_tail);
      for (const WalRecord& rec : wal.records)
        logged += rec.kind == WalRecordKind::kRating ? 1 : 0;
    }
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.ratings_accepted,
              static_cast<std::uint64_t>(kProducers) * kPerProducer);
    EXPECT_EQ(logged, m.ratings_accepted);
    EXPECT_GT(m.epochs_completed, 0u);
    svc.stop();
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace p2prep::service
