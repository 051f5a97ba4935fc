// Deterministic discrete-event engine.
//
// The engine owns a time-ordered queue of callbacks. Ties are broken by
// insertion sequence number, so two runs with identical inputs execute
// events in exactly the same order. Coroutine-based actors (sim/task.hpp)
// are resumed through this queue, never recursively, which bounds stack
// depth regardless of how long dependency chains get.
//
// Hot-path layout, two tiers:
//
//  * Same-time events (t == now): every coroutine hand-off — mailbox
//    push, future fulfilment, semaphore release — schedules at the
//    current timestamp. These bypass the priority queue entirely and go
//    through a FIFO ring buffer. Order is preserved exactly: a ring
//    entry is always younger (higher seq) than any same-time entry
//    still in the heap (same-time pushes stop reaching the heap the
//    moment now_ arrives at that timestamp), the ring itself is FIFO =
//    seq order, and simulated time cannot advance while the ring is
//    non-empty.
//  * Future events go into an explicit 4-ary heap over 24-byte
//    (time, seq, slot) keys, with payloads (InlineFn callbacks) parked
//    in a separate slot pool recycled through a free list. Sift
//    operations move only small trivially-copyable keys — never the
//    callables.
//
// A steady-state engine schedules events without touching the allocator
// at all: ring, heap, and slot pool grow to the high-water mark of
// pending events and are then reused.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace vtopo::sim {

/// Routing seam for the sharded engine (sim/sharded_engine.hpp). When a
/// hook is installed the Engine becomes a *facade*: schedules are
/// forwarded to the hook (which owns the real per-shard event
/// structures) and the Engine's own ring/heap stay empty. A null hook —
/// the default — leaves every code path bit-identical to the historical
/// single-threaded engine.
class ShardHook {
 public:
  virtual ~ShardHook() = default;
  /// Schedule on the simulated node currently executing (TLS context).
  virtual void hook_schedule(TimeNs t, InlineFn fn) = 0;
  /// Schedule on an explicit simulated node (possibly on another shard).
  virtual void hook_schedule_on_node(int node, TimeNs t, InlineFn fn) = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. Monotonically non-decreasing during run().
  [[nodiscard]] TimeNs now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `t` (>= now()).
  void schedule_at(TimeNs t, InlineFn fn) {
    if (hook_ != nullptr) {
      hook_->hook_schedule(t, std::move(fn));
      return;
    }
    assert(t >= now_ && "cannot schedule into the simulated past");
    if (t == now_) {
      ring_push(std::move(fn));
      return;
    }
    heap_.push_back(Key{t, next_seq_++, alloc_slot(std::move(fn))});
    sift_up(heap_.size() - 1);
  }

  /// Schedule `fn` after a relative delay (>= 0).
  void schedule_after(TimeNs delay, InlineFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` on simulated node `node` at time `t`. In the legacy
  /// single-threaded engine every node shares this queue, so this is
  /// schedule_at; under a shard hook it routes to the shard owning
  /// `node` (clamped to the current window boundary when crossing
  /// shards — see sharded_engine.hpp).
  void schedule_on_node(int node, TimeNs t, InlineFn fn) {
    if (hook_ != nullptr) {
      hook_->hook_schedule_on_node(node, t, std::move(fn));
      return;
    }
    schedule_at(t, std::move(fn));
  }

  /// Install (or clear) the shard routing hook. Sharded-engine internal.
  void install_hook(ShardHook* hook) { hook_ = hook; }

  /// Mark this engine as a wall-clock (threads-backend) facade. Completion
  /// sources that share state across real threads (sim::Future) switch to
  /// their synchronized protocol when the flag is set. Off by default, and
  /// never set for the deterministic engines, so the simulated paths stay
  /// bit-identical.
  void set_realtime(bool on) { realtime_ = on; }
  [[nodiscard]] bool realtime() const { return realtime_; }

  /// Force the clock. Sharded-engine internal: facades mirror their
  /// shard's window clock instead of advancing via step().
  void set_now(TimeNs t) { now_ = t; }

  /// Run until the event queue drains. Returns the final simulated time.
  TimeNs run() {
    while (!idle()) {
      step();
    }
    return now_;
  }

  /// Run until the queue drains or simulated time would exceed `deadline`.
  /// Returns true if the queue drained (all work finished).
  bool run_until(TimeNs deadline) {
    while (!idle()) {
      // Ring events run at now_ (<= deadline by construction); only a
      // heap pop can advance time past the deadline.
      if (ring_count_ == 0 && heap_.front().time > deadline) return false;
      step();
    }
    return true;
  }

  /// Number of events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// True if no events are pending.
  [[nodiscard]] bool idle() const {
    return ring_count_ == 0 && heap_.empty();
  }

 private:
  /// Heap key: payload lives in slots_[slot] so sifts move 24 bytes.
  struct Key {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // FIFO ring over a power-of-two vector; grows to the high-water mark
  // of simultaneously pending same-time events, then never reallocates.
  void ring_push(InlineFn fn) {
    if (ring_count_ == ring_.size()) ring_grow();
    const std::size_t mask = ring_.size() - 1;
    ring_[(ring_head_ + ring_count_) & mask] = std::move(fn);
    ++ring_count_;
  }

  InlineFn ring_pop() {
    assert(ring_count_ > 0);
    InlineFn fn = std::move(ring_[ring_head_]);
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_count_;
    return fn;
  }

  void ring_grow() {
    const std::size_t old_cap = ring_.size();
    std::vector<InlineFn> grown(old_cap == 0 ? 16 : old_cap * 2);
    for (std::size_t i = 0; i < ring_count_; ++i) {
      grown[i] = std::move(ring_[(ring_head_ + i) & (old_cap - 1)]);
    }
    ring_ = std::move(grown);
    ring_head_ = 0;
  }

  std::uint32_t alloc_slot(InlineFn fn) {
    if (!free_slots_.empty()) {
      const std::uint32_t s = free_slots_.back();
      free_slots_.pop_back();
      slots_[s] = std::move(fn);
      return s;
    }
    assert(slots_.size() < UINT32_MAX && "event slot pool overflow");
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  // 4-ary sift: shallower than binary (log4 vs log2 levels) and the four
  // children share cache lines, which is where a discrete-event queue
  // spends its time.
  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const Key k = heap_[i];
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], k)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = k;
  }

  void step() {
    if (ring_count_ != 0) {
      // Same-time heap entries are older (smaller seq) than every ring
      // entry, so they drain first when the timestamps coincide.
      if (heap_.empty() || heap_.front().time != now_) {
        ++executed_;
        InlineFn fn = ring_pop();
        fn();
        return;
      }
    }
    const Key top = heap_.front();
    const Key tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = tail;
      sift_down(0);
    }
    now_ = top.time;
    ++executed_;
    // Move the payload out and free its slot before invoking: the
    // callback may schedule new events (possibly reusing this slot).
    InlineFn fn = std::move(slots_[top.slot]);
    free_slots_.push_back(top.slot);
    fn();
  }

  ShardHook* hook_ = nullptr;
  bool realtime_ = false;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Key> heap_;
  std::vector<InlineFn> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<InlineFn> ring_;  // power-of-two capacity
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
};

}  // namespace vtopo::sim
