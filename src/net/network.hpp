// Simulated physical network: torus geometry + link occupancy.
//
// The model is a virtual cut-through approximation. A message's head
// advances one hop_latency per link after waiting for the link to be
// free; each crossed link is then occupied for the message's
// serialization time. Queueing therefore appears exactly where it does
// on the real machine under hot-spot traffic: at the victim node's NIC
// ejection port and on the torus links feeding it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/coords.hpp"
#include "net/params.hpp"
#include "net/stream_lru.hpp"
#include "net/torus.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/task.hpp"

namespace vtopo::net {

/// The physical machine a Network routes over: torus geometry plus the
/// per-link occupancy horizon. A standalone Network owns a private
/// Fabric (the historical single-tenant behavior, byte for byte); the
/// multi-tenant cluster service builds one Fabric per machine and
/// attaches every tenant's Network to it, so co-resident tenants
/// contend for the same physical links while all per-tenant state
/// (stream tables, route cache, edge faults, counters) stays private.
struct Fabric {
  /// Smallest near-cubic torus holding `min_slots` slots.
  explicit Fabric(std::int64_t min_slots) : torus(min_slots) {
    link_free.assign(static_cast<std::size_t>(torus.num_links()), 0);
  }

  TorusGeometry torus;
  /// Absolute time each directed link is next free (shared occupancy).
  std::vector<sim::TimeNs> link_free;
};

class Network {
 public:
  Network(sim::Engine& eng, std::int64_t num_nodes,
          NetworkParams params = {}, Placement placement = Placement::kLinear,
          std::uint64_t placement_seed = 0x9a17);

  /// Tenant attachment: route this Network's `slots.size()` nodes over
  /// the shared `fabric`, with local node v living on machine torus
  /// slot slots[v]. Link occupancy is shared with every other Network
  /// on the fabric; everything else stays per-tenant.
  Network(sim::Engine& eng, std::shared_ptr<Fabric> fabric,
          std::vector<std::int64_t> slots, NetworkParams params = {});

  [[nodiscard]] sim::Engine& engine() const { return *eng_; }
  [[nodiscard]] const NetworkParams& params() const { return params_; }
  [[nodiscard]] const TorusGeometry& torus() const { return fabric_->torus; }
  [[nodiscard]] const std::shared_ptr<Fabric>& fabric() const {
    return fabric_;
  }
  /// Machine torus slot hosting local node `n`.
  [[nodiscard]] std::int64_t slot_of(core::NodeId n) const {
    return slot_of_node_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(slot_of_node_.size());
  }

  /// Identity of the sending entity (process or CHT) for the purposes
  /// of the destination NIC's message-stream table.
  using StreamKey = std::int64_t;

  /// Reserve link capacity for one `bytes`-long message src -> dst
  /// starting now; returns the absolute simulated arrival time.
  /// `stream` identifies the sender entity at the destination NIC.
  sim::TimeNs send(core::NodeId src, core::NodeId dst, std::int64_t bytes,
                   StreamKey stream);

  /// send() with an explicit start time instead of engine().now(). The
  /// sharded delivery path records sends during the parallel phase and
  /// replays them against the shared link state between windows, using
  /// the sender's timestamp at the moment of the call.
  sim::TimeNs send_at(sim::TimeNs start, core::NodeId src, core::NodeId dst,
                      std::int64_t bytes, StreamKey stream);

  /// send() plus scheduling `on_arrival` at the arrival time (on the
  /// destination node's shard when sharding is enabled).
  void deliver(core::NodeId src, core::NodeId dst, std::int64_t bytes,
               StreamKey stream, sim::InlineFn on_arrival);

  /// deliver() with `extra_delay` added on top of the network arrival
  /// time (fault-injected delivery delay).
  void deliver_delayed(core::NodeId src, core::NodeId dst,
                       std::int64_t bytes, StreamKey stream,
                       sim::TimeNs extra_delay, sim::InlineFn on_arrival);

  /// deliver() plus a sender-side completion: `at_src` runs on the
  /// *calling* node at the same arrival time (one-sided put semantics —
  /// the sender learns local completion without a round trip). Both
  /// callbacks land at the exact arrival time on their own nodes.
  void deliver_notify(core::NodeId src, core::NodeId dst,
                      std::int64_t bytes, StreamKey stream,
                      sim::InlineFn at_dst, sim::InlineFn at_src);

  /// Awaitable message transfer: suspends the calling coroutine until
  /// arrival, resuming it on the node that awaited (its home shard).
  /// In legacy mode link capacity is reserved at construction, exactly
  /// like the historical `sim::Sleep`-returning transfer(); in sharded
  /// mode reservation happens in the serial phase in (time, stamp)
  /// order.
  class [[nodiscard]] Transfer {
   public:
    Transfer(Network& net, core::NodeId src, core::NodeId dst,
             std::int64_t bytes, StreamKey stream);
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

   private:
    Network* net_;
    core::NodeId src_;
    core::NodeId dst_;
    std::int64_t bytes_;
    StreamKey stream_;
    sim::TimeNs legacy_delay_ = 0;
  };
  [[nodiscard]] Transfer transfer(core::NodeId src, core::NodeId dst,
                                  std::int64_t bytes, StreamKey stream);

  /// Route cross-shard deliveries through `sharded`'s serial phase and
  /// destination-node scheduling. Must be set before any traffic flows.
  void enable_sharding(sim::ShardedEngine* sharded) { sharded_ = sharded; }
  [[nodiscard]] sim::ShardedEngine* sharded() const { return sharded_; }

  /// Stream-table misses that paid the BEER penalty so far.
  [[nodiscard]] std::uint64_t stream_misses() const {
    return stream_misses_;
  }

  /// Route memoizations performed (direct-mapped slot fills, including
  /// collision rebuilds).
  [[nodiscard]] std::uint64_t routes_cached() const {
    return routes_cached_;
  }

  /// Torus hop distance between the slots hosting two nodes.
  [[nodiscard]] int hop_count(core::NodeId src, core::NodeId dst) const;

  // ---- Fault state (sim/fault.hpp events, applied by the runtime) ----
  //
  // Faults are tracked per directed node pair: the routes of a fixed
  // placement never change, so degrading or severing the (src, dst)
  // pair is equivalent to faulting the torus links its dimension-order
  // route crosses — without perturbing unrelated pairs that share a
  // physical link (which keeps fault blast radius deterministic and
  // byte-identical under replay). With no fault installed the send hot
  // path is untouched beyond one empty-vector test.

  /// Install (or update) a fault on the directed pair src -> dst.
  /// `degrade` > 1 multiplies serialization time; `severed` marks the
  /// pair lossy (the protocol layer queries and drops — the network
  /// itself never destroys messages).
  void fault_edge(core::NodeId src, core::NodeId dst, bool severed,
                  double degrade);
  /// Remove any fault on the directed pair.
  void clear_edge_fault(core::NodeId src, core::NodeId dst);
  /// True while src -> dst traffic is severed.
  [[nodiscard]] bool edge_severed(core::NodeId src, core::NodeId dst) const;
  /// Serialization multiplier for src -> dst (1.0 when unfaulted).
  [[nodiscard]] double edge_degrade(core::NodeId src,
                                    core::NodeId dst) const;

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_total_; }

  // ---- Per-link census (tenant-isolation oracle; off by default) ----
  //
  // When enabled, every link this Network's traffic crosses (injection,
  // torus hops, ejection) increments a per-link counter, indexed by
  // fabric LinkId. The counters are host-side observation only — no
  // simulated timestamp depends on them — and they are per-Network, so
  // a tenant's census attributes exactly its own messages. The
  // isolation tests assert that a compact partition's census touches
  // only links owned by the partition's own slots (LinkId / 8).

  void enable_link_census() {
    census_.assign(static_cast<std::size_t>(fabric_->torus.num_links()), 0);
  }
  /// Crossing counts per fabric LinkId (empty unless enabled).
  [[nodiscard]] const std::vector<std::uint64_t>& link_census() const {
    return census_;
  }

 private:
  [[nodiscard]] sim::TimeNs serialize_ns(std::int64_t bytes,
                                         double bandwidth) const {
    return static_cast<sim::TimeNs>(static_cast<double>(bytes) * 1e9 /
                                    bandwidth);
  }

  /// Touch `stream` at destination `dst`; true when the access missed a
  /// full table (BEER penalty applies).
  bool stream_miss(core::NodeId dst, StreamKey stream);

  // Memoized dimension-order routes. Placement is fixed at construction,
  // so the link list of a (src,dst) node pair never changes; caching it
  // replaces the per-send coordinate walk (two slot_coords
  // de-linearizations plus per-dim ring deltas) with a flat array scan
  // in the exact same link order.
  //
  // The cache is a direct-mapped, bounded table rather than a dense N^2
  // array: at 262k nodes a dense table would need 64G entries, while
  // real traffic touches a tiny, heavily skewed subset of pairs
  // (hot-spot figures concentrate on one victim; neighbor exchanges on
  // O(N) pairs). Slots scale with the node count but are hard-capped;
  // a colliding pair simply recomputes the route and overwrites the
  // slot, reusing the slot's link storage, so memory stays bounded at
  // every scale and hits stay allocation-free.
  struct RouteSlot {
    std::uint64_t tag = 0;  ///< 0 = empty, else ((src << 32) | dst) + 1
    std::vector<std::int32_t> links;
  };
  static constexpr std::size_t kRouteCacheMinSlots = 1024;
  static constexpr std::size_t kRouteCacheMaxSlots = 131072;

  /// Memoize src->dst (inter-node pairs only) and return its slot.
  const RouteSlot& cache_route(core::NodeId src, core::NodeId dst);

  struct EdgeFault {
    core::NodeId src = 0;
    core::NodeId dst = 0;
    bool severed = false;
    double degrade = 1.0;
  };
  [[nodiscard]] const EdgeFault* find_fault(core::NodeId src,
                                            core::NodeId dst) const;

  /// Shared construction tail: sized off slot_of_node_ and fabric_.
  void init_tables();

  sim::Engine* eng_;
  sim::ShardedEngine* sharded_ = nullptr;
  NetworkParams params_;
  std::shared_ptr<Fabric> fabric_;      ///< private unless attached
  std::vector<EdgeFault> edge_faults_;  ///< tiny; linear scan
  std::vector<std::int64_t> slot_of_node_;
  std::vector<std::uint64_t> census_;   ///< per-link crossings (opt-in)
  std::vector<StreamLru> streams_;
  std::vector<RouteSlot> route_cache_;  ///< direct-mapped, power-of-two
  std::uint64_t routes_cached_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_total_ = 0;
  std::uint64_t stream_misses_ = 0;
};

}  // namespace vtopo::net
