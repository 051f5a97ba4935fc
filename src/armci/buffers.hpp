// Request-buffer credit accounting (the resource the paper's directed
// graph models).
//
// Edge E(i, j): node i dedicates buffers_per_process * ppn buffers to
// senders on node j. We track the credits on the *sender* side: before
// node j (a process or its CHT) may send a request to node i, it must
// acquire one credit for edge (i <- j); the credit returns when i's
// acknowledgment (or the response, for the first hop) arrives back at j.
// Exhausted credits block the sender — for a forwarding CHT this is the
// hold-and-wait that makes arbitrary forwarding orders deadlock.
//
// Storage is dense: one slot per topology out-neighbor, sized at
// construction from the neighbor list, so the per-send credit probe is a
// binary search over a sorted NodeId array plus an int decrement. Waiting
// coroutines queue FIFO through a waiter arena shared by all slots of
// the bank; release() hands the credit straight to the oldest waiter
// (count unchanged) and schedules its resumption at the current time.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/coords.hpp"
#include "sim/engine.hpp"
#include "sim/validate.hpp"

namespace vtopo::armci {

/// Sender-side credit pools on one node: one dense slot per out-neighbor.
class CreditBank {
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Pool {
    std::int64_t count = 0;
    std::int64_t in_use = 0;     ///< credits currently held by senders
    std::uint32_t head = kNil;   ///< oldest waiter (arena index)
    std::uint32_t tail = kNil;   ///< newest waiter
    std::uint32_t nwait = 0;
  };

  struct Waiter {
    std::coroutine_handle<> h;
    std::uint32_t next = kNil;
  };

 public:
  /// `neighbors` must be the node's direct-edge peers in ascending order
  /// (core::VirtualTopology::neighbors() order).
  CreditBank(sim::Engine& eng, std::int64_t credits_per_edge,
             std::vector<core::NodeId> neighbors)
      : eng_(&eng),
        limit_(credits_per_edge),
        neighbors_(std::move(neighbors)),
        pools_(neighbors_.size()) {
    assert(std::is_sorted(neighbors_.begin(), neighbors_.end()));
    for (Pool& p : pools_) p.count = credits_per_edge;
  }

  struct [[nodiscard]] Acquire {
    CreditBank* bank;
    std::size_t idx;
    bool await_ready() const {
      Pool& p = bank->pools_[idx];
      if (p.count <= 0) return false;
      --p.count;
      ++p.in_use;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) { bank->park(idx, h); }
    void await_resume() const noexcept {}
  };

  /// Take one credit for sending to `receiver`; suspends FIFO when the
  /// edge is exhausted.
  [[nodiscard]] Acquire acquire(core::NodeId receiver) {
    return Acquire{this, index_of(receiver)};
  }

  /// Return one credit for the edge to `receiver`. The oldest waiter
  /// receives it immediately (count unchanged), resumed via the event
  /// queue at the current time.
  void release(core::NodeId receiver) {
    Pool& p = pools_[index_of(receiver)];
    VTOPO_CHECK(p.in_use > 0, "credit released that was never acquired");
    const std::uint32_t w = p.head;
    if (w == kNil) {
      ++p.count;
      --p.in_use;
      return;
    }
    p.head = arena_[w].next;
    if (p.tail == w) p.tail = kNil;
    --p.nwait;
    const std::coroutine_handle<> h = arena_[w].h;
    arena_[w].next = free_;
    free_ = w;
    eng_->schedule_after(0, [h] { h.resume(); });
  }

  [[nodiscard]] std::int64_t available(core::NodeId receiver) const {
    return pools_[index_of(receiver)].count;
  }
  [[nodiscard]] std::size_t waiters(core::NodeId receiver) const {
    return pools_[index_of(receiver)].nwait;
  }
  [[nodiscard]] std::int64_t in_use(core::NodeId receiver) const {
    return pools_[index_of(receiver)].in_use;
  }
  [[nodiscard]] std::int64_t credits_per_edge() const { return limit_; }

  /// Credit conservation: for every pool, free + in-use credits equal
  /// the per-edge limit, neither is negative, and a waiter can only be
  /// parked while the pool is exhausted.
  [[nodiscard]] bool conserved() const {
    for (const Pool& p : pools_) {
      if (p.count < 0 || p.in_use < 0) return false;
      if (p.count + p.in_use != limit_) return false;
      if (p.nwait != 0 && p.count != 0) return false;
    }
    return true;
  }

  /// Abort (via validate_fail) unless conserved(). Compiled into every
  /// build so the validate ctest can exercise it; `what` names the bank
  /// in the failure message.
  void check_conserved(const char* what) const {
    VTOPO_CHECK_ALWAYS(conserved(), what);
  }

  /// Quiescence: conservation plus no credit held and no waiter parked —
  /// the shutdown condition after a clean run_all().
  void check_quiescent(const char* what) const {
    check_conserved(what);
    for (const Pool& p : pools_) {
      VTOPO_CHECK_ALWAYS(p.in_use == 0 && p.nwait == 0, what);
    }
  }

  /// Total time senders on this node spent blocked on exhausted credits.
  [[nodiscard]] sim::TimeNs blocked_ns() const { return blocked_ns_; }
  void add_blocked(sim::TimeNs d) { blocked_ns_ += d; }

  /// True when no credit is held and no waiter is parked on any pool —
  /// the per-node drain condition of the reconfiguration quiesce loop.
  [[nodiscard]] bool idle() const {
    for (const Pool& p : pools_) {
      if (p.in_use != 0 || p.nwait != 0) return false;
    }
    return true;
  }

  /// Pool-set delta of one remap at this bank.
  struct RemapStats {
    std::int64_t kept = 0;     ///< pools carried over (kept_edges)
    std::int64_t added = 0;    ///< pools freshly allocated (added_edges)
    std::int64_t removed = 0;  ///< pools torn down (removed_edges)
  };

  /// Incrementally remap the bank to a new sorted out-neighbor list:
  /// pools for kept edges are moved over untouched (their buffer sets
  /// are reused, not reallocated), pools for added edges start fresh at
  /// the per-edge limit, pools for removed edges are dropped. The bank
  /// must be idle() — the Runtime quiesces the request path first.
  RemapStats apply_remap(const std::vector<core::NodeId>& new_neighbors) {
    assert(std::is_sorted(new_neighbors.begin(), new_neighbors.end()));
    VTOPO_CHECK_ALWAYS(idle(), "apply_remap on a non-idle credit bank");
    RemapStats rs;
    std::vector<core::NodeId> merged_n;
    std::vector<Pool> merged_p;
    merged_n.reserve(new_neighbors.size());
    merged_p.reserve(new_neighbors.size());
    std::size_t i = 0;
    for (const core::NodeId nbr : new_neighbors) {
      while (i < neighbors_.size() && neighbors_[i] < nbr) {
        ++i;
        ++rs.removed;
      }
      merged_n.push_back(nbr);
      if (i < neighbors_.size() && neighbors_[i] == nbr) {
        merged_p.push_back(pools_[i]);
        ++i;
        ++rs.kept;
      } else {
        Pool fresh;
        fresh.count = limit_;
        merged_p.push_back(fresh);
        ++rs.added;
      }
    }
    rs.removed += static_cast<std::int64_t>(neighbors_.size() - i);
    neighbors_.swap(merged_n);
    pools_.swap(merged_p);
    return rs;
  }

  /// Ensure a (possibly non-topology) out-edge pool toward `receiver`
  /// exists, inserting a fresh full pool when missing. Safe on a live
  /// bank: pools travel with their neighbor ids and waiter state lives
  /// in the shared arena, so inserting a slot never invalidates a parked
  /// waiter. Used by the self-healing overlay, which dedicates direct
  /// buffers to a target when its dimension-order next hop is dead;
  /// conservation holds per pool (the new pool starts at the limit).
  /// Returns true when a pool was inserted.
  bool ensure_edge(core::NodeId receiver) {
    const auto it =
        std::lower_bound(neighbors_.begin(), neighbors_.end(), receiver);
    if (it != neighbors_.end() && *it == receiver) return false;
    const auto at = static_cast<std::size_t>(it - neighbors_.begin());
    neighbors_.insert(it, receiver);
    Pool fresh;
    fresh.count = limit_;
    pools_.insert(pools_.begin() + static_cast<std::ptrdiff_t>(at), fresh);
    return true;
  }

  /// True when the bank has a pool toward `receiver`.
  [[nodiscard]] bool has_edge(core::NodeId receiver) const {
    const auto it =
        std::lower_bound(neighbors_.begin(), neighbors_.end(), receiver);
    return it != neighbors_.end() && *it == receiver;
  }

  /// Buffer-exhaustion fault: move every currently free credit of the
  /// edge toward `receiver` into in_use (as if a misbehaving sender held
  /// them). Conservation still holds — the credits are held, not lost —
  /// so validate checks stay meaningful during the outage. Returns the
  /// number of credits seized.
  std::int64_t seize(core::NodeId receiver) {
    Pool& p = pools_[index_of(receiver)];
    const std::int64_t taken = p.count;
    p.in_use += taken;
    p.count = 0;
    return taken;
  }

  /// Release credits seized by a buffer-exhaustion fault, honoring the
  /// FIFO waiter hand-off exactly like normal releases.
  void restore(core::NodeId receiver, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) release(receiver);
  }

  /// Rebuild-from-scratch alternative to apply_remap(): every pool of
  /// the new neighbor list is reallocated, every old pool torn down,
  /// regardless of overlap. Exists so the reconfiguration bench can
  /// price the naive strategy against the incremental one.
  RemapStats rebuild(const std::vector<core::NodeId>& new_neighbors) {
    assert(std::is_sorted(new_neighbors.begin(), new_neighbors.end()));
    VTOPO_CHECK_ALWAYS(idle(), "rebuild on a non-idle credit bank");
    RemapStats rs;
    rs.removed = static_cast<std::int64_t>(neighbors_.size());
    rs.added = static_cast<std::int64_t>(new_neighbors.size());
    neighbors_ = new_neighbors;
    pools_.assign(new_neighbors.size(), Pool{});
    for (Pool& p : pools_) p.count = limit_;
    return rs;
  }

 private:
  [[nodiscard]] std::size_t index_of(core::NodeId receiver) const {
    const auto it =
        std::lower_bound(neighbors_.begin(), neighbors_.end(), receiver);
    assert(it != neighbors_.end() && *it == receiver &&
           "credit requested for a non-neighbor");
    return static_cast<std::size_t>(it - neighbors_.begin());
  }

  void park(std::size_t idx, std::coroutine_handle<> h) {
    std::uint32_t w;
    if (free_ != kNil) {
      w = free_;
      free_ = arena_[w].next;
    } else {
      w = static_cast<std::uint32_t>(arena_.size());
      arena_.emplace_back();
    }
    arena_[w].h = h;
    arena_[w].next = kNil;
    Pool& p = pools_[idx];
    if (p.tail == kNil) {
      p.head = w;
    } else {
      arena_[p.tail].next = w;
    }
    p.tail = w;
    ++p.nwait;
  }

  sim::Engine* eng_;
  std::int64_t limit_ = 0;      ///< credits_per_edge at construction
  std::vector<core::NodeId> neighbors_;
  std::vector<Pool> pools_;
  std::vector<Waiter> arena_;   ///< shared by all slots of this bank
  std::uint32_t free_ = kNil;   ///< head of recycled arena entries
  sim::TimeNs blocked_ns_ = 0;
};

}  // namespace vtopo::armci
