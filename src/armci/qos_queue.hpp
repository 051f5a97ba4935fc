// Class-aware CHT request queue.
//
// Three per-class FIFOs plus a weighted deficit-round-robin dequeue. A
// single consumer (the CHT's service loop) parks while the queue is
// empty; a push that finds it parked schedules one schedule_after(0)
// wake-up. With QoS disabled the selection degenerates to "pop the
// globally oldest entry" — three FIFOs whose heads are compared by push
// sequence number are a single FIFO — which is the event stream the
// figure goldens pin.
//
// Shutdown poison is a flag, not a queued item: it is delivered only
// once every class deque has drained, which both keeps the weighted
// dequeue from reordering a request behind the poison and makes
// backlog() naturally exclude it.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "armci/request.hpp"
#include "sim/engine.hpp"

namespace vtopo::armci {

class QosQueue {
 public:
  /// `qos` points at the live ArmciParams::qos switch, read per pop.
  QosQueue(sim::Engine& eng, const bool* qos) : eng_(&eng), qos_(qos) {}

  void push(RequestPtr r) {
    const auto cls = static_cast<std::size_t>(r->cls);
    assert(cls < static_cast<std::size_t>(kNumPriorities));
    q_[cls].push_back(Entry{std::move(r), next_seq_++});
    wake();
  }

  /// Arm shutdown: pop() returns nullptr once all deques are empty.
  void poison() {
    poison_ = true;
    wake();
  }

  /// Queue depth, excluding the shutdown poison.
  [[nodiscard]] std::size_t size() const {
    return q_[0].size() + q_[1].size() + q_[2].size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Awaitable pop; at most one consumer may be suspended at a time.
  /// Returns nullptr for the shutdown poison.
  auto pop() {
    struct Awaiter {
      QosQueue* q;
      bool await_ready() const { return !q->empty() || q->poison_; }
      void await_suspend(std::coroutine_handle<> h) {
        assert(!q->consumer_ && "QosQueue: second concurrent consumer");
        q->consumer_ = h;
      }
      RequestPtr await_resume() { return q->take(); }
    };
    return Awaiter{this};
  }

 private:
  struct Entry {
    RequestPtr r;
    std::uint64_t seq = 0;  ///< global push order (FIFO tie-break)
  };

  void wake() {
    if (consumer_) {
      auto h = std::exchange(consumer_, nullptr);
      eng_->schedule_after(0, [h] { h.resume(); });
    }
  }

  /// Round quanta (requests per round) for {bulk, normal, critical}.
  static constexpr int kWeights[kNumPriorities] = {1, 2, 8};

  RequestPtr take() {
    if (empty()) {
      assert(poison_ && "QosQueue: resumed with nothing to deliver");
      return nullptr;
    }
    std::size_t pick;
    if (!*qos_) {
      // FIFO-exact: the globally oldest head across the class deques.
      pick = oldest_head();
    } else {
      pick = select_drr();
    }
    RequestPtr r = std::move(q_[pick].front().r);
    q_[pick].pop_front();
    return r;
  }

  [[nodiscard]] std::size_t oldest_head() const {
    std::size_t best = kNumPriorities;
    std::uint64_t best_seq = ~std::uint64_t{0};
    for (std::size_t c = 0; c < kNumPriorities; ++c) {
      if (!q_[c].empty() && q_[c].front().seq < best_seq) {
        best_seq = q_[c].front().seq;
        best = c;
      }
    }
    assert(best < static_cast<std::size_t>(kNumPriorities));
    return best;
  }

  /// Weighted deficit round-robin over the class deques: the highest
  /// non-empty class still holding round credit wins; when every
  /// non-empty class has spent its quantum the credits refill from
  /// kWeights. Bulk therefore still drains under a sustained critical
  /// storm, once per round via its quantum.
  std::size_t select_drr() {
    for (int attempt = 0; attempt < 2; ++attempt) {
      for (std::size_t c = kNumPriorities; c-- > 0;) {
        if (!q_[c].empty() && credits_[c] > 0) {
          --credits_[c];
          return c;
        }
      }
      for (std::size_t c = 0; c < kNumPriorities; ++c) {
        credits_[c] = kWeights[c];
      }
    }
    return oldest_head();  // unreachable: refill guarantees a candidate
  }

  sim::Engine* eng_;
  const bool* qos_;
  std::deque<Entry> q_[kNumPriorities];
  std::uint64_t next_seq_ = 0;
  int credits_[kNumPriorities] = {0, 0, 0};
  bool poison_ = false;
  std::coroutine_handle<> consumer_{};
};

}  // namespace vtopo::armci
