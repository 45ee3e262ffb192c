// Bounded MPMC ingest queue with selectable backpressure, the front door of
// the sharded reputation service (DESIGN.md "Service layer").
//
// Producers are client threads calling ReputationService::ingest(); the
// single consumer per queue is that shard's worker thread (the template is
// nevertheless MPMC-safe — tests exercise multi-consumer draining). The
// consumer drains in batches: pop_batch() swaps the whole deque out under
// one lock, and a producer signals only a parked consumer, once per park,
// so a fast producer facing an idle worker pays no lock ping-pong per
// element. At most `capacity` elements (plus forced ones) sit in the
// queue, and one more such batch in the consumer's hands. Two overflow
// policies:
//  * kBlock      — producers wait for space; end-to-end backpressure.
//  * kDropOldest — the oldest *evictable* element is discarded to make
//    room, so the queue favours fresh ratings under overload. Elements the
//    `evictable` predicate rejects (epoch markers) are never discarded.
//
// push_forced() bypasses both capacity and policy. The service uses it for
// epoch markers, which must reach every shard exactly once or the epoch
// barrier would hang, and for the per-shard runs of a batch admission
// (ReputationService::try_ingest_batch), each sized against a size()
// snapshot the batch takes under the service's route_mu_. Batches
// serialize on that lock, and in global scope so does ingest(), so there
// a run never overshoots capacity. In per-shard scope ingest() pushes
// without it and can fill the room a batch counted before the batch's run
// lands: a queue then holds at most 2 × capacity ratings — capacity plus
// one run, no longer than the room it was sized against — plus forced
// markers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace p2prep::service {

enum class OverflowPolicy {
  kBlock,      ///< push() waits for space (backpressure).
  kDropOldest, ///< push() evicts the oldest evictable element.
};

template <typename T>
class IngestQueue {
 public:
  using Evictable = std::function<bool(const T&)>;

  /// `capacity` must be >= 1. `evictable` tells kDropOldest which elements
  /// may be discarded; the default allows all.
  explicit IngestQueue(std::size_t capacity,
                       OverflowPolicy policy = OverflowPolicy::kBlock,
                       Evictable evictable = {})
      : capacity_(capacity ? capacity : 1),
        policy_(policy),
        evictable_(std::move(evictable)) {}

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Enqueues `value`. Under kBlock, waits until space is available;
  /// returns false only when the queue was closed. Under kDropOldest,
  /// never waits: a full queue discards its oldest evictable element
  /// first (counted in dropped()); if nothing is evictable the queue
  /// grows past capacity rather than lose the new element.
  bool push(T value) {
    bool wake = false;
    {
      util::MutexLock lock(mu_);
      if (policy_ == OverflowPolicy::kBlock) {
        while (!closed_ && items_.size() >= capacity_) {
          ++blocked_producers_;
          not_full_.wait(mu_);
          --blocked_producers_;
        }
        if (closed_) return false;
      } else if (items_.size() >= capacity_) {
        for (auto it = items_.begin(); it != items_.end(); ++it) {
          if (!evictable_ || evictable_(*it)) {
            items_.erase(it);
            ++dropped_;
            break;
          }
        }
      }
      if (closed_) return false;
      items_.push_back(std::move(value));
      wake = take_wakeup();
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Enqueues regardless of capacity and policy; only fails when closed.
  /// Never blocks and never causes an eviction.
  bool push_forced(T value) {
    return push_forced(std::make_move_iterator(&value),
                       std::make_move_iterator(&value + 1));
  }

  /// Enqueues [first, last) in order under one lock, regardless of
  /// capacity and policy, and signals a parked consumer at most once.
  /// Fails, enqueuing nothing, only when closed.
  template <typename It>
  bool push_forced(It first, It last) {
    bool wake = false;
    {
      util::MutexLock lock(mu_);
      if (closed_) return false;
      items_.insert(items_.end(), first, last);
      wake = take_wakeup();
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Blocks until an element is queued or the queue is closed and
  /// drained, then moves every queued element into `batch` (cleared
  /// first), in FIFO order, by swapping deques under one lock — the
  /// batch's storage is recycled as the queue's next buffer. Returns
  /// false, with `batch` empty, when no element will ever come again.
  /// Producers blocked on a full queue are woken once per batch.
  bool pop_batch(std::deque<T>& batch) {
    batch.clear();
    bool wake_producers = false;
    {
      util::MutexLock lock(mu_);
      while (!closed_ && items_.empty()) {
        ++parked_consumers_;
        not_empty_.wait(mu_);
        --parked_consumers_;
        // Whoever was signalled is awake now; the next push may signal
        // again if this consumer (or another) parks once more.
        wakeup_pending_ = false;
      }
      if (items_.empty()) return false;
      std::swap(batch, items_);
      wake_producers = blocked_producers_ > 0;
    }
    if (wake_producers) not_full_.notify_all();
    return true;
  }

  /// Stops accepting pushes; queued elements remain poppable (drain).
  void close() {
    {
      util::MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Crash path: discards everything queued, then closes.
  void purge_and_close() {
    {
      util::MutexLock lock(mu_);
      items_.clear();
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    util::MutexLock lock(mu_);
    return items_.size();
  }
  [[nodiscard]] std::uint64_t dropped() const {
    util::MutexLock lock(mu_);
    return dropped_;
  }
  [[nodiscard]] bool closed() const {
    util::MutexLock lock(mu_);
    return closed_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// Whether a push must signal not_empty_: only when a consumer is
  /// parked and no signal is already on its way to one.
  bool take_wakeup() P2PREP_REQUIRES(mu_) {
    if (parked_consumers_ == 0 || wakeup_pending_) return false;
    wakeup_pending_ = true;
    return true;
  }

  const std::size_t capacity_;
  const OverflowPolicy policy_;
  const Evictable evictable_;

  mutable util::Mutex mu_;
  util::CondVar not_empty_;
  util::CondVar not_full_;
  std::deque<T> items_ P2PREP_GUARDED_BY(mu_);
  std::uint64_t dropped_ P2PREP_GUARDED_BY(mu_) = 0;
  bool closed_ P2PREP_GUARDED_BY(mu_) = false;
  std::size_t parked_consumers_ P2PREP_GUARDED_BY(mu_) = 0;
  std::size_t blocked_producers_ P2PREP_GUARDED_BY(mu_) = 0;
  bool wakeup_pending_ P2PREP_GUARDED_BY(mu_) = false;
};

}  // namespace p2prep::service
