#include "armci/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>

#include "armci/backend_threads.hpp"
#include "armci/cht.hpp"
#include "armci/proc.hpp"
#include "core/coords.hpp"
#include "core/remap.hpp"
#include "sim/validate.hpp"

namespace vtopo::armci {

namespace {

using MsgClass = sim::FaultInjector::MsgClass;

/// Standalone private fabric (the historical path), or attachment to a
/// shared machine fabric when Config::fabric is set (tenant mode).
net::Network make_network(sim::Engine& eng, const Runtime::Config& cfg) {
  if (cfg.fabric != nullptr) {
    if (static_cast<std::int64_t>(cfg.fabric_slots.size()) !=
        cfg.num_nodes) {
      throw std::invalid_argument(
          "Config::fabric_slots must have one machine slot per node");
    }
    return net::Network(eng, cfg.fabric, cfg.fabric_slots, cfg.net);
  }
  return net::Network(eng, cfg.num_nodes, cfg.net, cfg.placement, cfg.seed);
}

}  // namespace

Runtime::Runtime(sim::Engine& eng, Config cfg)
    : transport_(std::make_unique<LegacyTransport>(eng)),
      eng_(&eng),
      cfg_(cfg),
      memory_(cfg.num_nodes * cfg.procs_per_node, cfg.segment_bytes),
      topo_mgr_(cfg.custom_shape
                    ? core::VirtualTopology::custom(
                          cfg.topology, *cfg.custom_shape, cfg.num_nodes,
                          cfg.policy)
                    : core::VirtualTopology::make(cfg.topology,
                                                  cfg.num_nodes,
                                                  cfg.policy)),
      network_(make_network(eng, cfg)) {
  init();
}

Runtime::Runtime(Config cfg)
    : sharded_(cfg.backend == Backend::kThreads
                   ? nullptr
                   : std::make_unique<sim::ShardedEngine>(
                         static_cast<int>(cfg.num_nodes),
                         std::max(cfg.shards, 1),
                         cfg.net.min_remote_latency(), cfg.thread_mode)),
      transport_(cfg.backend == Backend::kThreads
                     ? std::unique_ptr<Transport>(
                           std::make_unique<ThreadsTransport>(
                               static_cast<int>(cfg.num_nodes)))
                     : std::unique_ptr<Transport>(
                           std::make_unique<ShardedTransport>(*sharded_))),
      threads_(cfg.backend == Backend::kThreads
                   ? static_cast<ThreadsTransport*>(transport_.get())
                   : nullptr),
      eng_(&transport_->global_engine()),
      cfg_(cfg),
      memory_(cfg.num_nodes * cfg.procs_per_node, cfg.segment_bytes),
      topo_mgr_(cfg.custom_shape
                    ? core::VirtualTopology::custom(
                          cfg.topology, *cfg.custom_shape, cfg.num_nodes,
                          cfg.policy)
                    : core::VirtualTopology::make(cfg.topology,
                                                  cfg.num_nodes,
                                                  cfg.policy)),
      network_(*eng_, cfg.num_nodes, cfg.net, cfg.placement, cfg.seed) {
  if (cfg_.fabric != nullptr) {
    // Tenant coupling shares one link-occupancy horizon across
    // runtimes, which only the single global engine serializes; the
    // sharded windows and wall-clock threads have no cross-runtime
    // ordering story. The cluster service uses the legacy constructor
    // for coupled tenants.
    throw std::invalid_argument(
        "fabric attachment requires the caller-owned legacy engine");
  }
  if (sharded_ != nullptr) {
    network_.enable_sharding(sharded_.get());
  } else if (cfg_.faults && cfg_.faults->armed()) {
    // The fault/retry/heal machinery is deterministic-replay tooling
    // (seeded draws, serial-phase overlays); on wall-clock threads it
    // has no meaning. Refuse rather than silently ignore.
    throw std::invalid_argument(
        "threads backend does not support fault injection");
  }
  init();
}

void Runtime::init() {
  const auto nn = static_cast<std::size_t>(cfg_.num_nodes);
  // One slot per executor context. Each pool homes foreign frees:
  // through the serial phase on the sharded engine, through the owning
  // node's queue on the threads backend (each worker touches only its
  // own slot; the driver folds them while workers are quiescent).
  for (int s = 0; s < transport_->num_slots(); ++s) {
    ShardSlot& slot = shard_slots_.emplace_back();
    if (sharded_ != nullptr) {
      slot.pool.bind_shard(sharded_.get(), s);
    } else {
      slot.pool.bind_realtime(&transport_->engine_for_node(s), s);
    }
  }
  req_seq_.assign(nn, 0);
  chts_.reserve(nn);
  credit_banks_.reserve(nn);
  for (core::NodeId n = 0; n < cfg_.num_nodes; ++n) {
    // Construct each node's actors under its own node context so the
    // engine references they capture (the CHT's queue, the credit
    // bank's waiter resumes) are the owning node's facade, which only
    // that node's shard or worker drives afterwards.
    const auto node = static_cast<int>(n);
    const sim::NodeScope scope = transport_->enter(node);
    sim::Engine& eng = transport_->engine_for_node(node);
    chts_.push_back(std::make_unique<Cht>(*this, n));
    credit_banks_.push_back(std::make_unique<CreditBank>(
        eng, credits_per_edge(), topology().neighbors(n)));
  }
  for (ProcId p = 0; p < num_procs(); ++p) procs_.emplace_back(*this, p);
  for (core::NodeId n = 0; n < cfg_.num_nodes; ++n) {
    // The service loop's first segment runs inline here and parks on
    // its queue. Threads workers have not started yet: the std::thread
    // constructors in drive() order all of this before any worker.
    const sim::NodeScope scope = transport_->enter(static_cast<int>(n));
    chts_[static_cast<std::size_t>(n)]->start();
  }
  if (cfg_.faults && cfg_.faults->armed()) {
    injector_ = std::make_unique<sim::FaultInjector>(*eng_, *cfg_.faults);
    node_down_.assign(nn, 0);
    node_slow_.assign(nn, 1.0);
    healed_.assign(nn, 0);
    first_hop_timeouts_.assign(nn, 0);
    // Per-node RNG streams keep message-fault draws independent of how
    // concurrent node contexts interleave; arming under the global
    // pseudo-node makes every outage a global event, which runs where
    // cross-node state is safe to mutate (between sharded windows).
    if (!shard_slots_.empty()) {
      injector_->shard_streams(static_cast<int>(cfg_.num_nodes));
    }
    const sim::NodeScope scope = transport_->enter(transport_->global_node());
    injector_->arm([this](const sim::FaultEvent& e, bool begin) {
      apply_fault(e, begin);
    });
  }
}

Runtime::~Runtime() {
  // Let CHT loops exit so their coroutine frames are reclaimed; safe
  // even after run_all() (stop is idempotent via the poison drain).
  if (!chts_stopped_) {
    stop_chts();
  }
}

void Runtime::stop_chts() {
  for (core::NodeId n = 0; n < cfg_.num_nodes; ++n) {
    // stop() pushes the poison token into the CHT's queue, which may
    // wake the parked consumer through its node facade — so push from
    // that node's context. (Threads workers are quiescent here: the
    // wakeup posted through the node's queue orders the worker behind
    // this write.)
    const sim::NodeScope scope = transport_->enter(static_cast<int>(n));
    chts_[static_cast<std::size_t>(n)]->stop();
  }
  run_engine();
  chts_stopped_ = true;
}

bool Runtime::run_engine(sim::TimeNs deadline) {
  for (ShardSlot& s : shard_slots_) s.tracer.configure_from(tracer_);
  transport_->drive_until(deadline);
  fold_slots();
  return live_tasks() == 0;
}

void Runtime::fold_slots() {
  for (ShardSlot& s : shard_slots_) {
    RuntimeStats& a = stats_;
    const RuntimeStats& b = s.stats;
    a.requests += b.requests;
    a.forwards += b.forwards;
    a.max_forwards_seen =
        std::max(a.max_forwards_seen, b.max_forwards_seen);
    a.acks += b.acks;
    a.responses += b.responses;
    a.direct_ops += b.direct_ops;
    a.cht_wakeups += b.cht_wakeups;
    a.lock_queue_max = std::max(a.lock_queue_max, b.lock_queue_max);
    a.max_backlog = std::max(a.max_backlog, b.max_backlog);
    a.credit_blocked_ns += b.credit_blocked_ns;
    a.reconfigurations += b.reconfigurations;
    a.reconfig_quiesce_ns += b.reconfig_quiesce_ns;
    a.reconfig_remap_ns += b.reconfig_remap_ns;
    a.retries += b.retries;
    a.msgs_dropped += b.msgs_dropped;
    a.msgs_duplicated += b.msgs_duplicated;
    a.msgs_delayed += b.msgs_delayed;
    a.dup_suppressed += b.dup_suppressed;
    a.credits_reclaimed += b.credits_reclaimed;
    a.heals += b.heals;
    a.healed_reroutes += b.healed_reroutes;
    s.stats = RuntimeStats{};
    tracer_.merge_from(s.tracer);
  }
  if (shard_slots_.empty()) return;
  // Sorting restores an order that does not depend on which slot
  // recorded which sample, so percentiles and float sums of the folded
  // series compare bytewise across shard counts.
  if (tracer_.enabled()) tracer_.canonicalize();
  if (sharded_ == nullptr) return;
  stats_.shard_mem.assign(
      static_cast<std::size_t>(sharded_->num_shards()), ShardMemStats{});
  for (int sh = 0; sh < sharded_->num_shards(); ++sh) {
    const sim::ShardedEngine::ShardMem m = sharded_->shard_mem(sh);
    ShardMemStats& d = stats_.shard_mem[static_cast<std::size_t>(sh)];
    d.heap_slots = m.heap_slots;
    d.heap_peak = m.heap_peak;
    d.mailbox_peak = m.mailbox_peak;
    d.events = m.executed;
    const ShardSlot& slot = shard_slots_[static_cast<std::size_t>(sh)];
    d.pool_parked = slot.pool.parked();
    d.pool_created = slot.pool.created();
  }
}

Proc& Runtime::proc(ProcId p) {
  assert(p >= 0 && p < num_procs());
  return procs_[static_cast<std::size_t>(p)];
}

Cht& Runtime::cht(core::NodeId n) {
  assert(n >= 0 && n < num_nodes());
  return *chts_[static_cast<std::size_t>(n)];
}

CreditBank& Runtime::credits(core::NodeId n) {
  assert(n >= 0 && n < num_nodes());
  return *credit_banks_[static_cast<std::size_t>(n)];
}

void Runtime::spawn(ProcId p, std::function<sim::Co<void>(Proc&)> program) {
  programs_.push_back(std::move(program));
  // The program body runs on its node from the first instruction, and a
  // proc coroutine always resumes on its own node (futures resume at
  // their owner, Sleep stays on the facade), so the live counter lives
  // in that node's slot and is decremented there.
  const sim::NodeScope scope = transport_->enter(static_cast<int>(node_of(p)));
  sim::spawn(programs_.back()(proc(p)), &live_slot());
}

void Runtime::spawn_all(const std::function<sim::Co<void>(Proc&)>& program) {
  for (ProcId p = 0; p < num_procs(); ++p) spawn(p, program);
}

void Runtime::spawn_task(sim::Co<void> task) {
  // Auxiliary tasks spawned from the driver thread (reconfigure drivers,
  // monitors) live on the global pseudo-node, where cross-node state is
  // safe to touch; tasks spawned by a node stay on it.
  const sim::NodeScope scope = transport_->enter(
      sim::current_node() < 0 ? transport_->global_node() : -1);
  sim::spawn(std::move(task), nullptr);
}

void Runtime::run_all() {
  run_engine();
  if (live_tasks() != 0) throw DeadlockError(live_tasks());
  stop_chts();
#if VTOPO_VALIDATE_ENABLED
  validate_quiescent();
#endif
}

void Runtime::validate_quiescent() {
  for (const auto& bank : credit_banks_) {
    bank->check_quiescent("credit bank not quiescent after run");
  }
  request_pool_.check_drained("request leaked past shutdown");
  for (const ShardSlot& s : shard_slots_) {
    s.pool.check_drained("request leaked past shutdown (shard pool)");
  }
  VTOPO_CHECK_ALWAYS(inflight_requests() == 0,
                     "issued request never completed at its origin");
  // Check the cumulative forwarding depth against the loosest bound of
  // any topology generation installed during the run: after a live
  // reconfiguration to a shallower topology, hops that were legal under
  // the earlier generation remain in the counter.
  VTOPO_CHECK_ALWAYS(
      stats_.max_forwards_seen <=
          static_cast<std::uint64_t>(topo_mgr_.max_forwards_bound()),
      "request forwarded past the topology's max-forwards bound");
}

bool Runtime::request_path_quiescent() const {
  if (inflight_requests() != 0) return false;
  for (const auto& bank : credit_banks_) {
    if (!bank->idle()) return false;
  }
  return true;
}

// --------------------------------------------------------------------
// Fault injection and the self-healing request path.
//
// Everything below is dormant unless a FaultPlan is armed: the message
// wrappers then reduce to the exact Network::deliver calls the protocol
// made before this subsystem existed, so fault-free runs schedule the
// same events in the same order (byte-identical figures).
// --------------------------------------------------------------------

void Runtime::apply_fault(const sim::FaultEvent& e, bool begin) {
  const auto a = static_cast<core::NodeId>(e.a);
  const auto b = static_cast<core::NodeId>(e.b);
  const bool a_ok = a >= 0 && a < num_nodes();
  const bool b_ok = b >= 0 && b < num_nodes();
  switch (e.kind) {
    case sim::FaultKind::kLinkSever:
    case sim::FaultKind::kLinkDegrade: {
      if (!a_ok || !b_ok || a == b) return;
      const bool sever = e.kind == sim::FaultKind::kLinkSever;
      const double slow = sever ? 1.0 : e.magnitude;
      if (begin) {
        // A physical link outage hits both directions of the pair.
        network_.fault_edge(a, b, sever, slow);
        network_.fault_edge(b, a, sever, slow);
      } else {
        network_.clear_edge_fault(a, b);
        network_.clear_edge_fault(b, a);
      }
      return;
    }
    case sim::FaultKind::kNodeCrash: {
      if (!a_ok) return;
      node_down_[static_cast<std::size_t>(a)] = begin ? 1 : 0;
      if (begin) {
        heal_around(a);
      } else {
        unheal(a);
      }
      return;
    }
    case sim::FaultKind::kNodeSlow: {
      if (!a_ok) return;
      node_slow_[static_cast<std::size_t>(a)] =
          begin ? std::max(1.0, e.magnitude) : 1.0;
      return;
    }
    case sim::FaultKind::kBufferExhaust: {
      if (!a_ok || !b_ok) return;
      // Restore may resume parked credit waiters through the bank's
      // engine; enter the bank's node context so those resumes land on
      // its own shard (apply_fault itself runs between windows).
      const sim::NodeScope scope = transport_->enter(static_cast<int>(a));
      if (begin) {
        if (!credits(a).has_edge(b)) return;
        seized_.push_back(SeizedCredits{a, b, credits(a).seize(b)});
      } else {
        for (std::size_t i = 0; i < seized_.size(); ++i) {
          if (seized_[i].bank == a && seized_[i].edge == b) {
            const std::int64_t n = seized_[i].count;
            seized_.erase(seized_.begin() +
                          static_cast<std::ptrdiff_t>(i));
            credits(a).restore(b, n);
            return;
          }
        }
      }
      return;
    }
  }
}

// The heal overlay (healed_ / any_healed_ / first_hop_timeouts_) is
// shared across every node, so its mutators run serially: on the sharded
// engine post_serial merges concurrent triggers in (time, stamp) order,
// so the overlay evolves identically at every shard count, and workers
// read the flags race-free because writes happen only between windows.
// Serial work posted from a serial context (the legacy engine, global-
// context callers such as apply_fault) runs immediately.

void Runtime::heal_around(core::NodeId dead) {
  transport_->run_serial([this, dead] { apply_heal_around(dead); });
}

void Runtime::apply_heal_around(core::NodeId dead) {
  if (injector_ == nullptr || dead < 0 || dead >= num_nodes()) return;
  char& flag = healed_[static_cast<std::size_t>(dead)];
  if (flag != 0) return;
  flag = 1;
  any_healed_ = true;
  ++stats_.heals;
}

void Runtime::unheal(core::NodeId node) {
  transport_->run_serial([this, node] {
    if (injector_ == nullptr || node < 0 || node >= num_nodes()) return;
    healed_[static_cast<std::size_t>(node)] = 0;
    first_hop_timeouts_[static_cast<std::size_t>(node)] = 0;
    any_healed_ = std::find(healed_.begin(), healed_.end(), 1) != healed_.end();
  });
}

core::NodeId Runtime::next_hop_for(core::NodeId src, core::NodeId dst) {
  const core::NodeId hop = topology().next_hop(src, dst);
  if (!any_healed_ || hop == dst ||
      healed_[static_cast<std::size_t>(hop)] == 0) {
    return hop;
  }
  // The dimension-order hop is routed around: dedicate direct buffers to
  // the final target instead. The target executes without forwarding, so
  // the overlay introduces no hold-and-wait edge (deadlock freedom) and
  // strictly fewer forwards than the severed route (bound preserved).
  credits(src).ensure_edge(dst);
  ++stats().healed_reroutes;
  return dst;
}

void Runtime::note_first_hop_timeout(core::NodeId hop) {
  // Consecutive first-hop timeouts toward one next-hop node before the
  // runtime heals around it.
  constexpr int kHealTimeoutThreshold = 3;
  transport_->run_serial([this, hop] {
    if (hop < 0 || hop >= num_nodes()) return;
    int& n = first_hop_timeouts_[static_cast<std::size_t>(hop)];
    if (++n >= kHealTimeoutThreshold) apply_heal_around(hop);
  });
}

void Runtime::note_first_hop_ok(core::NodeId hop) {
  if (hop < 0 || hop >= num_nodes()) return;
  transport_->run_serial([this, hop] {
    first_hop_timeouts_[static_cast<std::size_t>(hop)] = 0;
  });
}

void Runtime::reclaim_lease(core::NodeId holder, core::NodeId receiver) {
  // NIC-level delivery timeout after which a lost message's credit
  // returns to its pool.
  constexpr sim::TimeNs kLeaseReclaimDelay = sim::us(60.0);
  if (!cfg_.armci.lease_reclaim) return;  // chaos knob: leak instead
  CreditBank* bank = credit_banks_[static_cast<std::size_t>(holder)].get();
  Runtime* rt = this;
  auto release = [rt, bank, receiver] {
    bank->release(receiver);
    ++rt->stats().credits_reclaimed;
  };
  // The bank belongs to `holder`, which may live on another shard (or
  // worker thread) than the caller: route the delayed release through
  // the transport to its node. On the legacy engine this reduces to the
  // plain schedule_after the code used before the seam existed.
  transport_->post_after(static_cast<int>(holder), kLeaseReclaimDelay,
                         std::move(release));
}

RequestPtr Runtime::clone_request(const Request& r) {
  RequestPtr c = request_pool().acquire();
  c->id = r.id;  // shared sequence number: the dedup key
  c->op = r.op;
  c->origin_proc = r.origin_proc;
  c->origin_node = r.origin_node;
  c->target_proc = r.target_proc;
  c->target_node = r.target_node;
  c->attempt = r.attempt;
  c->cls = r.cls;
  c->addr = r.addr;
  c->scale = r.scale;
  c->imm = r.imm;
  c->mutex_id = r.mutex_id;
  c->segs = r.segs;
  c->strided = r.strided;
  c->data = r.data;
  c->response_future = r.response_future;  // shared completion state
  return c;
}

sim::FaultInjector::MsgFault Runtime::message_fault(core::NodeId src,
                                                   core::NodeId dst,
                                                   MsgClass cls,
                                                   bool lock_traffic) {
  // Locks are exempt from faults end to end (lock traffic is modeled
  // reliable: a replayed grant would corrupt the waiter queue), as are
  // intra-node deliveries (shared memory, not the wire).
  if (!faults_armed() || src == dst || lock_traffic) return {};
  if (network_.edge_severed(src, dst) || node_down(dst)) {
    sim::FaultInjector::MsgFault lost;
    lost.drop = true;
    return lost;
  }
  return injector_->sample_message(cls);
}

void Runtime::travel(core::NodeId src, core::NodeId dst, std::int64_t bytes,
                     net::Network::StreamKey stream, sim::TimeNs delay,
                     sim::InlineFn on_arrival) {
  if (threads_ != nullptr) {
    // Real thread hand-off: the closure runs on the destination's worker
    // (faults are refused on this backend, so `delay` is always 0). Wire
    // latency is whatever the host's queues make it.
    transport_->post(static_cast<int>(dst), std::move(on_arrival));
    return;
  }
  network_.deliver_delayed(src, dst, bytes, stream, delay,
                           std::move(on_arrival));
}

void Runtime::send_request_msg(RequestPtr r, core::NodeId src,
                               core::NodeId dst, std::int64_t wire_bytes,
                               net::Network::StreamKey stream) {
  const bool lock = r->op == OpCode::kLock || r->op == OpCode::kUnlock;
  const sim::FaultInjector::MsgFault f =
      message_fault(src, dst, MsgClass::kRequest, lock);
  if (f.drop) {
    ++stats().msgs_dropped;
    // The hop's buffer-credit lease dies with the message; reclaim it so
    // flow control recovers. The op itself is recovered by the origin's
    // retry watchdog (its RequestPtr copy keeps the request alive).
    if (r->hop_credit_taken) reclaim_lease(src, dst);
    return;
  }
  // The target's worker (or shard) submits the request to its own CHT.
  Cht& cht_dst = cht(dst);
  if (f.duplicate) {
    ++stats().msgs_duplicated;
    RequestPtr dup = clone_request(*r);
    dup->upstream_node = r->upstream_node;
    dup->upstream_is_cht = r->upstream_is_cht;
    dup->forwards = r->forwards;
    dup->hop_credit_taken = false;  // ghost copy holds no lease
    travel(src, dst, wire_bytes, stream, 0,
           [&cht_dst, dup = std::move(dup)]() mutable {
             cht_dst.submit(std::move(dup));
           });
  }
  if (f.delay > 0) ++stats().msgs_delayed;
  travel(src, dst, wire_bytes, stream, f.delay,
         [&cht_dst, r = std::move(r)]() mutable {
           cht_dst.submit(std::move(r));
         });
}

void Runtime::send_ack_msg(core::NodeId from, core::NodeId upstream) {
  ++stats().acks;
  const sim::FaultInjector::MsgFault f =
      message_fault(from, upstream, MsgClass::kAck, /*lock_traffic=*/false);
  if (f.drop) {
    ++stats().msgs_dropped;
    // A lost ack strands the lease at the upstream holder; reclaim it
    // (or, with lease_reclaim off, leak it — the validate death test).
    reclaim_lease(upstream, from);
    return;
  }
  if (f.delay > 0) ++stats().msgs_delayed;
  // The credit returns on the upstream holder's own node — the bank (and
  // any parked acquire waiter it resumes) is confined there.
  CreditBank& bank = credits(upstream);
  travel(from, upstream, cfg_.armci.ack_bytes, cht_stream(from), f.delay,
         [&bank, from] { bank.release(from); });
}

void Runtime::send_response_msg(RequestPtr req, Response resp,
                                core::NodeId from,
                                std::int64_t wire_bytes) {
  ++stats().responses;
  const core::NodeId dst = req->origin_node;
  const bool lock = req->op == OpCode::kLock || req->op == OpCode::kUnlock;
  const sim::FaultInjector::MsgFault f =
      message_fault(from, dst, MsgClass::kResponse, lock);
  if (f.drop) {
    ++stats().msgs_dropped;  // the origin's watchdog re-issues
    return;
  }
  if (f.delay > 0) ++stats().msgs_delayed;
  Runtime* rt = this;
  auto complete = [rt, req = std::move(req),
                   resp = std::move(resp)]() mutable {
    // Origin-side completion gate: the first response fulfils the op
    // (and lets the reconfigure quiesce proceed); late duplicates —
    // from retries or duplicated requests — are absorbed here. Runs at
    // the origin node, the same context that issued the op, so the
    // future and in-flight counter it touches both live there.
    if (req->response_future->ready()) {
      ++rt->stats().dup_suppressed;
      return;
    }
    rt->note_request_completed();
    req->response_future->set(std::move(resp));
  };
  travel(from, dst, wire_bytes, cht_stream(from), f.delay,
         std::move(complete));
}

void Runtime::arm_retry_watchdog(const RequestPtr& r) {
  const core::NodeId first_hop =
      next_hop_for(r->origin_node, r->target_node);
  spawn_task(retry_watchdog(r, *r->response_future, first_hop));
}

sim::Co<void> Runtime::retry_watchdog(RequestPtr r,
                                      sim::Future<Response> fut,
                                      core::NodeId first_hop) {
  // Each unanswered attempt multiplies the timeout, up to
  // retry_backoff_cap.
  constexpr double kRetryBackoff = 2.0;
  const ArmciParams& p = cfg_.armci;
  sim::TimeNs timeout = p.retry_timeout;
  for (int attempt = 1; attempt <= p.retry_max_attempts; ++attempt) {
    co_await sim::Sleep(engine(), timeout);
    if (fut.ready()) {
      note_first_hop_ok(first_hop);
      co_return;
    }
    ++stats().retries;
    tracer().record(TraceKind::kRetry, r->origin_proc,
                    engine().now() - timeout, timeout);
    note_first_hop_timeout(first_hop);
    RequestPtr copy = clone_request(*r);
    copy->attempt = attempt;
    spawn_task(reissue(std::move(copy)));
    timeout = std::min(
        static_cast<sim::TimeNs>(static_cast<double>(timeout) *
                                 kRetryBackoff),
        p.retry_backoff_cap);
  }
  co_await sim::Sleep(engine(), timeout);
  if (fut.ready()) {
    note_first_hop_ok(first_hop);
    co_return;
  }
  VTOPO_CHECK_ALWAYS(false,
                     "retry attempts exhausted: request completion lost");
}

sim::Co<void> Runtime::reissue(RequestPtr r) {
  const ArmciParams& p = cfg_.armci;
  // Note: no reconfiguration fence here. The logical op was admitted on
  // its first issue and the quiesce loop is waiting for its completion;
  // parking the retry at the fence would deadlock the quiesce.
  co_await sim::Sleep(engine(), p.proc_op_overhead);
  if (r->response_future->ready()) co_return;  // completed while asleep
  const core::NodeId origin = r->origin_node;
  const net::Network::StreamKey stream = proc_stream(r->origin_proc);
  const std::int64_t wire = p.request_header_bytes + r->payload_bytes();
  const core::NodeId hop = next_hop_for(origin, r->target_node);
  CreditBank& bank = credits(origin);
  const sim::TimeNs t0 = engine().now();
  co_await bank.acquire(hop);
  const sim::TimeNs blocked = engine().now() - t0;
  bank.add_blocked(blocked);
  stats().credit_blocked_ns += blocked;
  if (r->response_future->ready()) {
    bank.release(hop);  // raced with a late response: hand it back
    co_return;
  }
  r->upstream_node = origin;
  r->upstream_is_cht = false;
  r->hop_credit_taken = true;
  send_request_msg(std::move(r), origin, hop, wire, stream);
}

sim::Co<bool> Runtime::reconfigure(core::TopologyKind to,
                                   ReconfigMode mode) {
  VTOPO_CHECK_ALWAYS(!reconfig_active_,
                     "reentrant reconfigure(): one at a time");
  // Sharded: the coroutine must live on the global pseudo-node (drive it
  // with spawn_task() from the main thread) — it mutates every node's
  // credit bank and the topology, which is only safe between windows.
  assert(!sim::shard_context().parallel);
  // On real threads there is no between-windows phase where that is
  // safe. Refuse (same contract as an impossible target shape).
  if (backend() == Backend::kThreads) co_return false;
  if (to == topology().kind()) co_return false;
  // Refuse instead of throwing: Co promises terminate on an escaped
  // exception (sim actors have no one to rethrow to).
  if (to == core::TopologyKind::kHypercube &&
      !core::is_power_of_two(cfg_.num_nodes)) {
    co_return false;
  }
  const ArmciParams& p = cfg_.armci;
  const sim::TimeNs t0 = eng_->now();
  ReconfigReport rep;
  rep.from = topology().kind();
  rep.to = to;
  rep.mode = mode;

  // ---- Quiesce: fence new CHT-mediated ops, drain in-flight ones
  // (requests, forwards, credit acks, credit waiters). A bounded poll
  // count turns the one pathological non-draining pattern (a lock
  // holder parked at the fence while its waiter's request sits in the
  // target's lock queue) into a diagnosable abort instead of a hang.
  constexpr std::int64_t kMaxQuiescePolls = 10'000'000;
  reconfig_active_ = true;
  while (!request_path_quiescent()) {
    ++rep.quiesce_polls;
    VTOPO_CHECK_ALWAYS(rep.quiesce_polls <= kMaxQuiescePolls,
                       "reconfigure quiesce did not drain (CHT-mediated "
                       "op issued while holding a lock?)");
    co_await sim::Sleep(*eng_, p.reconfig_poll);
  }
  for (const auto& bank : credit_banks_) {
    bank->check_quiescent("credit bank not quiescent at reconfiguration");
  }
  VTOPO_CHECK_ALWAYS(inflight_requests() == 0,
                     "request in flight at reconfiguration");
  const sim::TimeNs t_quiesced = eng_->now();

  // ---- Plan the transition; under VTOPO_VALIDATE, verify the ordered
  // build -> switch -> teardown schedule keeps every intermediate
  // buffer-dependency graph acyclic before touching any bank.
  core::VirtualTopology next =
      core::VirtualTopology::make(to, cfg_.num_nodes, cfg_.policy);
  const core::RemapPlan plan = core::plan_remap(topology(), next);
  [[maybe_unused]] const core::RemapSchedule sched =
      core::plan_schedule(plan);
#if VTOPO_VALIDATE_ENABLED
  {
    const core::TransitionCheck check =
        core::verify_transition(topology(), next, sched);
    VTOPO_CHECK_ALWAYS(check.ok(), "unsafe topology transition schedule");
  }
#endif

  // ---- Execute: remap every node's credit bank from the delta.
  std::int64_t built = 0;
  std::int64_t torn = 0;
  for (core::NodeId n = 0; n < cfg_.num_nodes; ++n) {
    CreditBank& bank = *credit_banks_[static_cast<std::size_t>(n)];
    const CreditBank::RemapStats rs =
        mode == ReconfigMode::kIncremental
            ? bank.apply_remap(next.neighbors(n))
            : bank.rebuild(next.neighbors(n));
    rep.pools_kept += rs.kept;
    built += rs.added;
    torn += rs.removed;
  }
  rep.pools_added = built;
  rep.pools_removed = torn;
  const std::int64_t bytes_per_pool = credits_per_edge() * p.buffer_bytes;
  rep.bytes_allocated = built * bytes_per_pool;
  rep.bytes_released = torn * bytes_per_pool;
  co_await sim::Sleep(*eng_, p.reconfig_admin +
                                 p.reconfig_edge_build * built +
                                 p.reconfig_edge_teardown * torn);
  topo_mgr_.install(std::move(next), eng_->now());

  rep.epoch = topo_mgr_.epoch();
  rep.quiesce_ns = t_quiesced - t0;
  rep.remap_ns = eng_->now() - t_quiesced;
  ++stats_.reconfigurations;
  stats_.reconfig_quiesce_ns += rep.quiesce_ns;
  stats_.reconfig_remap_ns += rep.remap_ns;
  tracer_.record(TraceKind::kReconfigure, /*proc=*/-1, t0,
                 eng_->now() - t0);

  // ---- Resume ops parked at the fence, in FIFO issue order (via the
  // event queue, which is FIFO at equal timestamps — deterministic), each
  // on the node that parked it: the coroutine is a proc body and must
  // continue on its own shard.
  reconfig_active_ = false;
  rep.waiters_resumed =
      static_cast<std::int64_t>(reconfig_waiters_.size());
  std::vector<FenceWaiter> waiters;
  waiters.swap(reconfig_waiters_);
  for (const FenceWaiter& w : waiters) {
    transport_->post(w.node, [h = w.h] { h.resume(); });
  }
  last_reconfig_ = rep;
  co_return true;
}

void Runtime::park_at_fence(std::coroutine_handle<> h) {
  // Recorded serially: concurrent parks from several shards merge in
  // (time, stamp) order, giving the same FIFO at every shard count.
  const auto node = static_cast<std::int32_t>(sim::current_node());
  transport_->run_serial([this, h, node] {
    reconfig_waiters_.push_back(FenceWaiter{h, node});
  });
}

sim::TimeNs Runtime::collective_latency(int traversals) const {
  const int levels = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(num_procs()))));
  return cfg_.armci.barrier_base +
         traversals * cfg_.armci.barrier_per_level * std::max(levels, 1);
}

sim::Future<int> Runtime::barrier_wait() {
  sim::Future<int> fut(engine());
  if (threads_ != nullptr) {
    // Real-thread rendezvous: arrivals from every worker meet under one
    // mutex; the last arrival fulfils all futures outside the lock (a
    // realtime set() posts each resume to its awaiting node; its own
    // future is ready before its caller awaits it). No modeled tree
    // latency: the barrier costs whatever the host threads cost.
    std::vector<sim::Future<int>> futs;
    {
      std::lock_guard<std::mutex> g(threads_->coll_mu());
      barrier_futures_.push_back(fut);
      if (++barrier_arrived_ == num_procs()) {
        futs.swap(barrier_futures_);
        barrier_arrived_ = 0;
      }
    }
    for (auto& f : futs) f.set(0);
    return fut;
  }
  // Simulated rendezvous: arrivals run serially in (time, stamp) order;
  // the last arrival releases every future as one global event at its
  // own arrival time plus the tree latency. Each future's owner is the
  // arriving proc's node, so the resumes land back on the right shards
  // at the exact release time — and on the legacy engine they queue in
  // arrival order, as same-time events.
  const sim::TimeNs tc = now();
  transport_->run_serial([this, fut, tc]() mutable {
    barrier_futures_.push_back(std::move(fut));
    if (++barrier_arrived_ == num_procs()) {
      std::vector<sim::Future<int>> futs;
      futs.swap(barrier_futures_);
      barrier_arrived_ = 0;
      transport_->schedule_global_at(tc + collective_latency(1),
                                     [futs = std::move(futs)]() mutable {
        for (auto& f : futs) f.set(0);
      });
    }
  });
  return fut;
}

sim::Future<double> Runtime::allreduce_sum(double value) {
  sim::Future<double> fut(engine());
  if (threads_ != nullptr) {
    // Like barrier_wait; the summation order is arrival order, which is
    // nondeterministic here — float totals can differ between runs by
    // rounding (callers compare with a tolerance, not bytes).
    std::vector<sim::Future<double>> futs;
    double total = 0.0;
    {
      std::lock_guard<std::mutex> g(threads_->coll_mu());
      reduce_sum_ += value;
      reduce_futures_.push_back(fut);
      if (++reduce_arrived_ == num_procs()) {
        total = std::exchange(reduce_sum_, 0.0);
        futs.swap(reduce_futures_);
        reduce_arrived_ = 0;
      }
    }
    for (auto& f : futs) f.set(total);
    return fut;
  }
  // Like barrier_wait, but the serial arrival order also fixes the
  // floating-point summation order — (time, stamp), independent of shard
  // count and host interleaving. Reduction + broadcast: two traversals.
  const sim::TimeNs tc = now();
  transport_->run_serial([this, fut, tc, value]() mutable {
    reduce_sum_ += value;
    reduce_futures_.push_back(std::move(fut));
    if (++reduce_arrived_ == num_procs()) {
      std::vector<sim::Future<double>> futs;
      futs.swap(reduce_futures_);
      reduce_arrived_ = 0;
      transport_->schedule_global_at(
          tc + collective_latency(2),
          [futs = std::move(futs), total = std::exchange(reduce_sum_, 0.0)]()
              mutable {
            for (auto& f : futs) f.set(total);
          });
    }
  });
  return fut;
}

}  // namespace vtopo::armci
