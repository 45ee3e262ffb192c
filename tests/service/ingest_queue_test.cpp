#include "service/ingest_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

namespace p2prep::service {
namespace {

/// Drains whatever the queue holds right now (it must hold something or
/// be closed), as a vector for easy comparison.
std::vector<int> drain_batch(IngestQueue<int>& q) {
  std::deque<int> batch;
  q.pop_batch(batch);
  return {batch.begin(), batch.end()};
}

TEST(IngestQueueTest, FifoOrderPreserved) {
  IngestQueue<int> q(8, OverflowPolicy::kBlock);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(drain_batch(q), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(IngestQueueTest, BlockPolicyAppliesBackpressure) {
  IngestQueue<int> q(2, OverflowPolicy::kBlock);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // blocks until a batch frees the queue
    third_pushed.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.size(), 2u);

  EXPECT_EQ(drain_batch(q), (std::vector<int>{1, 2}));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(drain_batch(q), (std::vector<int>{3}));
  EXPECT_EQ(q.dropped(), 0u);
}

TEST(IngestQueueTest, DropOldestEvictsFromTheFront) {
  IngestQueue<int> q(3, OverflowPolicy::kDropOldest);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_TRUE(q.push(4));  // evicts 1
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(drain_batch(q), (std::vector<int>{2, 3, 4}));
}

TEST(IngestQueueTest, DropOldestSkipsNonEvictableElements) {
  // Only even values are evictable — stand-in for "never drop an epoch
  // marker" in the service.
  IngestQueue<int> q(3, OverflowPolicy::kDropOldest,
                     [](const int& v) { return v % 2 == 0; });
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_TRUE(q.push(8));  // evicts 2, the first evictable element
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(drain_batch(q), (std::vector<int>{1, 3, 8}));
}

TEST(IngestQueueTest, DropOldestGrowsWhenNothingIsEvictable) {
  IngestQueue<int> q(2, OverflowPolicy::kDropOldest,
                     [](const int&) { return false; });
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));  // nothing evictable: grows past capacity
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_EQ(q.size(), 3u);
}

TEST(IngestQueueTest, PushForcedBypassesCapacity) {
  IngestQueue<int> q(1, OverflowPolicy::kBlock);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push_forced(2));  // would block as a normal push
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(drain_batch(q), (std::vector<int>{1, 2}));
}

TEST(IngestQueueTest, CloseDrainsRemainingElements) {
  IngestQueue<int> q(4, OverflowPolicy::kBlock);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_FALSE(q.push_forced(4));
  EXPECT_EQ(drain_batch(q), (std::vector<int>{1, 2}));
  std::deque<int> batch{7};  // stale contents are cleared
  EXPECT_FALSE(q.pop_batch(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(IngestQueueTest, PurgeAndCloseDiscardsEverything) {
  IngestQueue<int> q(4, OverflowPolicy::kBlock);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.purge_and_close();
  EXPECT_EQ(q.size(), 0u);
  std::deque<int> batch;
  EXPECT_FALSE(q.pop_batch(batch));
}

TEST(IngestQueueTest, CloseUnblocksWaitingProducer) {
  IngestQueue<int> q(1, OverflowPolicy::kBlock);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.push(2));  // blocked, then released by close()
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

TEST(IngestQueueTest, ForcedRunBypassesCapacityAndPolicy) {
  for (const OverflowPolicy policy :
       {OverflowPolicy::kBlock, OverflowPolicy::kDropOldest}) {
    IngestQueue<int> q(2, policy);
    const std::vector<int> run{1, 2, 3};
    // A run lands whole, in order, past capacity: it neither waits nor
    // evicts, whatever the policy.
    EXPECT_TRUE(q.push_forced(run.begin(), run.end()));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.dropped(), 0u);
    EXPECT_TRUE(q.push_forced(run.begin(), run.begin()));  // empty run
    EXPECT_EQ(drain_batch(q), (std::vector<int>{1, 2, 3}));
    q.close();
    // Closed: nothing of the run is enqueued.
    EXPECT_FALSE(q.push_forced(run.begin(), run.end()));
    EXPECT_EQ(q.size(), 0u);
  }
}


// A consumer parked on an empty queue must be woken by close() and by
// purge_and_close(), and then see the end of the stream.
TEST(IngestQueueTest, CloseWakesParkedConsumer) {
  for (const bool purge : {false, true}) {
    IngestQueue<int> q(4, OverflowPolicy::kBlock);
    std::atomic<bool> returned{false};
    bool got_batch = true;
    std::thread consumer([&] {
      std::deque<int> batch;
      got_batch = q.pop_batch(batch);
      returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());
    if (purge)
      q.purge_and_close();
    else
      q.close();
    consumer.join();
    EXPECT_TRUE(returned.load());
    EXPECT_FALSE(got_batch) << (purge ? "purge_and_close" : "close");
  }
}

// A parked consumer is woken by the first push after it parks, every time
// it parks — the once-per-park signal must never be lost.
TEST(IngestQueueTest, ParkedConsumerWakesOnEveryRefill) {
  IngestQueue<int> q(4, OverflowPolicy::kBlock);
  constexpr int kRounds = 200;
  std::atomic<int> consumed{0};
  std::thread consumer([&] {
    std::deque<int> batch;
    while (q.pop_batch(batch))
      consumed.fetch_add(static_cast<int>(batch.size()));
  });
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_TRUE(q.push(i));
    // Wait for the consumer to take it, so it parks again before the
    // next push; a lost wakeup leaves it parked past the deadline.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (consumed.load() <= i &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    if (consumed.load() <= i) {
      ADD_FAILURE() << "consumer missed the wakeup for element " << i;
      break;
    }
  }
  q.close();
  consumer.join();
  EXPECT_EQ(consumed.load(), kRounds);
}

TEST(IngestQueueTest, ManyProducersOneConsumer) {
  IngestQueue<int> q(64, OverflowPolicy::kBlock);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q] {
      for (int i = 0; i < kPerProducer; ++i) EXPECT_TRUE(q.push(i));
    });
  }
  int popped = 0;
  std::deque<int> batch;
  while (popped < kProducers * kPerProducer) {
    if (q.pop_batch(batch)) popped += static_cast<int>(batch.size());
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(popped, kProducers * kPerProducer);
  EXPECT_EQ(q.size(), 0u);
}

// Batches never reorder one producer's elements: under many concurrent
// producers (blocking, forced and forced-run pushes mixed), the
// consumer sees each producer's sequence in push order, complete.
TEST(IngestQueueTest, PerProducerFifoUnderManyProducers) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 2000;
  IngestQueue<int> q(16, OverflowPolicy::kBlock);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        if (i % 7 == 0) {
          EXPECT_TRUE(q.push_forced(value));
        } else if (i % 3 == 0 && i + 1 < kPerProducer) {
          const int run[] = {value, value + 1};
          EXPECT_TRUE(q.push_forced(std::begin(run), std::end(run)));
          ++i;
        } else {
          EXPECT_TRUE(q.push(value));
        }
      }
    });
  }

  std::vector<int> next(kProducers, 0);
  int seen = 0;
  std::deque<int> batch;
  while (seen < kProducers * kPerProducer && q.pop_batch(batch)) {
    for (const int value : batch) {
      const int p = value / kPerProducer;
      ASSERT_EQ(value % kPerProducer, next[p]) << "producer " << p;
      ++next[p];
      ++seen;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(seen, kProducers * kPerProducer);
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
}

}  // namespace
}  // namespace p2prep::service
