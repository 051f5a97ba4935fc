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
#include <array>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "armci/params.hpp"
#include "armci/request.hpp"
#include "core/coords.hpp"
#include "sim/engine.hpp"
#include "sim/validate.hpp"

namespace vtopo::armci {

/// Sender-side credit pools on one node: one dense slot per out-neighbor.
///
/// With QoS armed (QosParams::enabled and nonzero reservations) each pool
/// is notionally partitioned into three lanes: a critical-only lane of
/// `reserve_critical` credits, a >=normal lane of `reserve_normal`, and
/// the shared remainder usable by any class. High classes drain the
/// shared lane first and fall back to their reserved lanes only when it
/// is exhausted, so a critical request can always acquire a buffer even
/// when bulk traffic has the shared portion of the pool drained.
/// Per-class in_use accounting runs unconditionally (pure bookkeeping,
/// no event change) so conservation stays checkable under VTOPO_VALIDATE
/// whether or not QoS is on; with zero reservations the eligibility and
/// hand-off logic is bit-equivalent to the single-lane bank.
class CreditBank {
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Pool {
    std::int64_t count = 0;
    std::int64_t in_use = 0;     ///< credits currently held by senders
    /// in_use split by holder class (sums to in_use).
    std::array<std::int64_t, kNumPriorities> cls_in_use{};
    /// Reserved-lane holds: laneC is critical-only, laneN is >=normal
    /// (split by holder class so releases stay attributable). Shared-
    /// lane holds are the remainder of in_use.
    std::int64_t lane_c_used = 0;
    std::int64_t lane_n_used_normal = 0;
    std::int64_t lane_n_used_critical = 0;
    std::uint32_t head = kNil;   ///< oldest waiter (arena index)
    std::uint32_t tail = kNil;   ///< newest waiter
    std::uint32_t nwait = 0;
  };

  struct Waiter {
    std::coroutine_handle<> h;
    std::uint32_t next = kNil;
    Priority cls = Priority::kNormal;
  };

 public:
  /// `neighbors` must be the node's direct-edge peers in ascending order
  /// (core::VirtualTopology::neighbors() order). `qos` may be null (no
  /// reserved lanes ever) or point at long-lived params whose
  /// reservations are read live on every acquire/release.
  CreditBank(sim::Engine& eng, std::int64_t credits_per_edge,
             std::vector<core::NodeId> neighbors,
             const QosParams* qos = nullptr)
      : eng_(&eng),
        qos_(qos),
        limit_(credits_per_edge),
        neighbors_(std::move(neighbors)),
        pools_(neighbors_.size()) {
    assert(std::is_sorted(neighbors_.begin(), neighbors_.end()));
    for (Pool& p : pools_) p.count = credits_per_edge;
  }

  struct [[nodiscard]] Acquire {
    CreditBank* bank;
    std::size_t idx;
    Priority cls;
    bool await_ready() const {
      Pool& p = bank->pools_[idx];
      if (bank->eligible(p, cls)) {
        bank->take(p, cls);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      bank->park(idx, h, cls);
    }
    void await_resume() const noexcept {}
  };

  /// Take one credit for sending to `receiver`; suspends FIFO when the
  /// edge (as visible to `cls` — reserved lanes excluded for lower
  /// classes) is exhausted.
  [[nodiscard]] Acquire acquire(core::NodeId receiver,
                                Priority cls = Priority::kNormal) {
    return Acquire{this, index_of(receiver), cls};
  }

  /// Return one credit held by a `cls` sender for the edge to
  /// `receiver`. The oldest waiter whose class may use the freed credit
  /// (reserved lanes considered) receives it immediately, resumed via
  /// the event queue at the current time; without reservations that is
  /// exactly the old oldest-waiter hand-off.
  void release(core::NodeId receiver, Priority cls = Priority::kNormal) {
    Pool& p = pools_[index_of(receiver)];
    VTOPO_CHECK(p.in_use > 0, "credit released that was never acquired");
    VTOPO_CHECK(p.cls_in_use[static_cast<std::size_t>(cls)] > 0,
                "credit released by a class holding none");
    give_back(p, cls);
    // Hand the freed credit to the oldest waiter that can use it. A
    // waiter of a low class may stay parked past this release when the
    // only free credits sit in lanes reserved above it.
    std::uint32_t prev = kNil;
    for (std::uint32_t w = p.head; w != kNil; w = arena_[w].next) {
      if (!eligible(p, arena_[w].cls)) {
        prev = w;
        continue;
      }
      take(p, arena_[w].cls);
      if (prev == kNil) {
        p.head = arena_[w].next;
      } else {
        arena_[prev].next = arena_[w].next;
      }
      if (p.tail == w) p.tail = prev;
      --p.nwait;
      const std::coroutine_handle<> h = arena_[w].h;
      arena_[w].next = free_;
      free_ = w;
      eng_->schedule_after(0, [h] { h.resume(); });
      return;
    }
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

  /// Credits of `receiver`'s pool a fresh request of class `cls` could
  /// take right now (reserved lanes excluded for lower classes).
  [[nodiscard]] bool may_acquire(core::NodeId receiver, Priority cls) const {
    return eligible(pools_[index_of(receiver)], cls);
  }

  /// Times a critical acquire was satisfied from a reserved lane (the
  /// shared lane was drained; without the reservation it would have
  /// parked behind bulk).
  [[nodiscard]] std::uint64_t reserved_grants() const {
    return reserved_grants_;
  }

  /// Credit conservation: for every pool, free + in-use credits equal
  /// the per-edge limit, neither is negative, per-class holds sum to the
  /// total, reserved-lane holds are attributed to classes entitled to
  /// them, and a waiter can only be parked while every credit its class
  /// may use is taken (with no reservations: while the pool is
  /// exhausted).
  [[nodiscard]] bool conserved() const {
    for (const Pool& p : pools_) {
      if (p.count < 0 || p.in_use < 0) return false;
      if (p.count + p.in_use != limit_) return false;
      std::int64_t cls_sum = 0;
      for (const std::int64_t c : p.cls_in_use) {
        if (c < 0) return false;
        cls_sum += c;
      }
      if (cls_sum != p.in_use) return false;
      if (p.lane_c_used < 0 || p.lane_n_used_normal < 0 ||
          p.lane_n_used_critical < 0) {
        return false;
      }
      if (p.lane_c_used + p.lane_n_used_critical >
          p.cls_in_use[static_cast<std::size_t>(Priority::kCritical)]) {
        return false;
      }
      if (p.lane_n_used_normal >
          p.cls_in_use[static_cast<std::size_t>(Priority::kNormal)]) {
        return false;
      }
      for (std::uint32_t w = p.head; w != kNil; w = arena_[w].next) {
        if (eligible(p, arena_[w].cls)) return false;
      }
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
    // Seized credits are booked as shared bulk holds: the fault models a
    // misbehaving bulk sender, and shared attribution means a seize can
    // drain the reserved lanes too (that is the outage being modeled).
    p.cls_in_use[static_cast<std::size_t>(Priority::kBulk)] += taken;
    p.count = 0;
    return taken;
  }

  /// Release credits seized by a buffer-exhaustion fault, honoring the
  /// FIFO waiter hand-off exactly like normal releases.
  void restore(core::NodeId receiver, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) {
      release(receiver, Priority::kBulk);
    }
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

  void park(std::size_t idx, std::coroutine_handle<> h, Priority cls) {
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
    arena_[w].cls = cls;
    Pool& p = pools_[idx];
    if (p.tail == kNil) {
      p.head = w;
    } else {
      arena_[p.tail].next = w;
    }
    p.tail = w;
    ++p.nwait;
  }

  /// Effective lane reservations, clamped so at least one shared credit
  /// always remains (a pool that is all reserve would deadlock bulk
  /// permanently instead of merely deprioritizing it). Zero when QoS is
  /// off, collapsing every lane computation to the single-lane bank.
  [[nodiscard]] std::int64_t reserve_c() const {
    if (qos_ == nullptr || !qos_->enabled) return 0;
    const auto r = static_cast<std::int64_t>(qos_->reserve_critical);
    return std::clamp<std::int64_t>(r, 0, limit_ - 1);
  }
  [[nodiscard]] std::int64_t reserve_n() const {
    if (qos_ == nullptr || !qos_->enabled) return 0;
    const auto r = static_cast<std::int64_t>(qos_->reserve_normal);
    return std::clamp<std::int64_t>(r, 0, limit_ - 1 - reserve_c());
  }

  [[nodiscard]] std::int64_t lane_c_free(const Pool& p) const {
    return std::max<std::int64_t>(0, reserve_c() - p.lane_c_used);
  }
  [[nodiscard]] std::int64_t lane_n_free(const Pool& p) const {
    return std::max<std::int64_t>(
        0, reserve_n() - (p.lane_n_used_normal + p.lane_n_used_critical));
  }
  /// May go negative transiently when reservations are raised while
  /// shared credits are held (live QoS retune); eligibility treats that
  /// as "no shared credit free", which is exactly right.
  [[nodiscard]] std::int64_t shared_free(const Pool& p) const {
    return p.count - lane_c_free(p) - lane_n_free(p);
  }

  /// Whether a fresh `cls` request may take a credit now: each class
  /// sees the free count minus every lane reserved above it.
  [[nodiscard]] bool eligible(const Pool& p, Priority cls) const {
    switch (cls) {
      case Priority::kBulk:
        return shared_free(p) > 0;
      case Priority::kNormal:
        return p.count - lane_c_free(p) > 0;
      case Priority::kCritical:
        return p.count > 0;
    }
    return false;
  }

  /// Take one credit for `cls`, attributing it shared-lane first and
  /// only falling back to the class's reserved lanes when the shared
  /// portion is drained (reserves stay free for the next emergency).
  /// Caller guarantees eligible(p, cls).
  void take(Pool& p, Priority cls) {
    const bool shared_ok = shared_free(p) > 0;
    --p.count;
    ++p.in_use;
    ++p.cls_in_use[static_cast<std::size_t>(cls)];
    if (shared_ok || cls == Priority::kBulk) return;
    if (cls == Priority::kNormal) {
      ++p.lane_n_used_normal;
      return;
    }
    if (lane_n_free(p) > 0) {
      ++p.lane_n_used_critical;
    } else {
      ++p.lane_c_used;
      ++reserved_grants_;
    }
  }

  /// Undo one `cls` hold, freeing the most-reserved lane the class may
  /// have been occupying first so reserves replenish before the shared
  /// pool does.
  void give_back(Pool& p, Priority cls) {
    ++p.count;
    --p.in_use;
    --p.cls_in_use[static_cast<std::size_t>(cls)];
    if (cls == Priority::kCritical) {
      if (p.lane_c_used > 0) {
        --p.lane_c_used;
      } else if (p.lane_n_used_critical > 0) {
        --p.lane_n_used_critical;
      }
    } else if (cls == Priority::kNormal) {
      if (p.lane_n_used_normal > 0) --p.lane_n_used_normal;
    }
  }

  sim::Engine* eng_;
  const QosParams* qos_ = nullptr;
  std::int64_t limit_ = 0;      ///< credits_per_edge at construction
  std::vector<core::NodeId> neighbors_;
  std::vector<Pool> pools_;
  std::vector<Waiter> arena_;   ///< shared by all slots of this bank
  std::uint32_t free_ = kNil;   ///< head of recycled arena entries
  std::uint64_t reserved_grants_ = 0;
  sim::TimeNs blocked_ns_ = 0;
};

}  // namespace vtopo::armci
