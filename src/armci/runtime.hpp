// The ARMCI-like GAS runtime running on the simulated cluster.
//
// A Runtime wires together: the global memory, a virtual topology
// (FCG/MFCG/CFCG/Hypercube) over the nodes, the physical torus network,
// one CHT (communication helper thread) actor per node, and per-node
// credit banks modelling the pre-allocated request buffers.
//
// Application code is written as coroutines against the Proc API
// (armci/proc.hpp) and spawned with spawn()/spawn_all(); run_all()
// drives the simulation to completion and reports stranded tasks
// (i.e., deadlock) by throwing.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "armci/buffers.hpp"
#include "armci/memory.hpp"
#include "armci/params.hpp"
#include "armci/proc.hpp"
#include "armci/request.hpp"
#include "armci/topology_manager.hpp"
#include "armci/trace.hpp"
#include "armci/transport.hpp"
#include "core/topology.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/task.hpp"

namespace vtopo::armci {

class Cht;
class ThreadsTransport;

/// Per-shard memory accounting, snapshotted when a sharded run folds.
/// Deliberately outside any byte-identity golden: freelist hit rates
/// depend on the shard partition (remote frees are deferred to the
/// serial phase) even though the simulation itself does not.
struct ShardMemStats {
  std::size_t heap_slots = 0;     ///< event slot-pool high-water
  std::size_t heap_peak = 0;      ///< max simultaneous heap entries
  std::size_t mailbox_peak = 0;   ///< max cross-shard mail in one drain
  std::size_t pool_parked = 0;    ///< requests parked in the shard pool
  std::uint64_t pool_created = 0; ///< requests heap-built by the shard
  std::uint64_t events = 0;       ///< events the shard executed
};

/// Aggregate protocol counters for one run.
struct RuntimeStats {
  std::uint64_t requests = 0;        ///< CHT-mediated requests issued
  std::uint64_t forwards = 0;        ///< intermediate-CHT forwardings
  std::uint64_t max_forwards_seen = 0;  ///< deepest forwarding chain of
                                        ///< any single request
  std::uint64_t acks = 0;            ///< buffer-credit acknowledgments
  std::uint64_t responses = 0;       ///< responses delivered to origins
  std::uint64_t direct_ops = 0;      ///< contiguous put/get (no CHT)
  std::uint64_t cht_wakeups = 0;     ///< idle->active CHT transitions
  std::uint64_t lock_queue_max = 0;  ///< deepest lock waiter queue seen
  std::uint64_t max_backlog = 0;     ///< deepest CHT queue seen (high-water
                                     ///< at submit, poison excluded)
  sim::TimeNs credit_blocked_ns = 0; ///< total sender time blocked on
                                     ///< exhausted buffer credits

  // ---- Reconfiguration counters (all zero until reconfigure() runs) ----
  std::uint64_t reconfigurations = 0;   ///< completed reconfigure() calls
  sim::TimeNs reconfig_quiesce_ns = 0;  ///< total time draining the
                                        ///< request path before remaps
  sim::TimeNs reconfig_remap_ns = 0;    ///< total simulated remap stall

  // ---- Fault-path counters (all zero while faults are disarmed) ----
  std::uint64_t retries = 0;           ///< watchdog re-issues
  std::uint64_t msgs_dropped = 0;      ///< protocol messages lost
  std::uint64_t msgs_duplicated = 0;   ///< request messages duplicated
  std::uint64_t msgs_delayed = 0;      ///< protocol messages delayed
  std::uint64_t dup_suppressed = 0;    ///< duplicate completions absorbed
                                       ///< (origin gate + target cache)
  std::uint64_t credits_reclaimed = 0; ///< leases reclaimed after losses
  std::uint64_t heals = 0;             ///< heal-around overlays installed
  std::uint64_t healed_reroutes = 0;   ///< hops redirected by an overlay

  /// One entry per shard on the sharded runtime (empty on the legacy
  /// engine); refreshed every time a run folds.
  std::vector<ShardMemStats> shard_mem;
};

/// How reconfigure() rebuilds the per-node credit banks.
enum class ReconfigMode : std::uint8_t {
  kIncremental,  ///< reuse kept-edge buffer sets, touch only the delta
  kRebuild,      ///< tear everything down and reallocate (bench baseline)
};

/// Accounting of one completed live reconfiguration.
struct ReconfigReport {
  std::uint64_t epoch = 0;  ///< topology epoch after the switch
  core::TopologyKind from = core::TopologyKind::kFcg;
  core::TopologyKind to = core::TopologyKind::kFcg;
  ReconfigMode mode = ReconfigMode::kIncremental;
  std::int64_t pools_kept = 0;     ///< buffer sets reused across the remap
  std::int64_t pools_added = 0;    ///< buffer sets newly allocated
  std::int64_t pools_removed = 0;  ///< buffer sets torn down
  std::int64_t bytes_allocated = 0;  ///< Fig.-5 bytes of pools_added
  std::int64_t bytes_released = 0;   ///< Fig.-5 bytes of pools_removed
  sim::TimeNs quiesce_ns = 0;  ///< time spent draining the request path
  sim::TimeNs remap_ns = 0;    ///< simulated stall executing the remap
  std::int64_t quiesce_polls = 0;    ///< drain-poll iterations
  std::int64_t waiters_resumed = 0;  ///< ops parked at the fence
};

/// Thrown by run_all() when the simulation drained with coroutines still
/// suspended — the runtime signature of a forwarding deadlock.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::int64_t stranded)
      : std::runtime_error("simulation drained with " +
                           std::to_string(stranded) +
                           " task(s) still blocked (deadlock)"),
        stranded_(stranded) {}
  [[nodiscard]] std::int64_t stranded() const { return stranded_; }

 private:
  std::int64_t stranded_;
};

class Runtime {
 public:
  struct Config {
    std::int64_t num_nodes = 16;
    int procs_per_node = 4;
    core::TopologyKind topology = core::TopologyKind::kFcg;
    core::ForwardingPolicy policy = core::ForwardingPolicy::kLowestDimFirst;
    /// Explicit grid shape (e.g. a skewed MFCG mesh); when unset the
    /// canonical near-square/near-cubic shape for num_nodes is used.
    std::optional<core::Shape> custom_shape;
    ArmciParams armci{};
    net::NetworkParams net{};
    net::Placement placement = net::Placement::kLinear;
    std::int64_t segment_bytes = std::int64_t{1} << 20;
    std::uint64_t seed = 42;
    /// Seeded chaos: when set and armed, the runtime schedules the
    /// plan's outages on the event loop, injects its per-message faults
    /// into the CHT protocol, and turns on the self-healing request
    /// path (retry watchdogs, duplicate suppression, credit-lease
    /// reclamation, heal-around overlays). Unset or disarmed, every
    /// fault code path is dormant and runs are byte-identical to a
    /// fault-free build.
    std::optional<sim::FaultPlan> faults;
    /// Spatial shards for the parallel engine (self-hosting constructor
    /// only; the legacy external-engine constructor ignores it). Output
    /// is byte-identical at every shard count by construction.
    int shards = 1;
    /// Host-thread policy for the sharded engine.
    sim::ThreadMode thread_mode = sim::ThreadMode::kAuto;
    /// Multi-tenant attachment (legacy constructor only): when set, the
    /// runtime's Network routes over this shared machine fabric, with
    /// local node v living on machine torus slot fabric_slots[v]
    /// (fabric_slots.size() must equal num_nodes). Link occupancy is
    /// shared with every co-resident tenant on the fabric; all other
    /// runtime state — topology epoch, CreditBank, QoS, stream tables,
    /// route cache, faults, stats — stays per-tenant. `placement` and
    /// the placement seed are ignored when attached.
    std::shared_ptr<net::Fabric> fabric;
    std::vector<std::int64_t> fabric_slots;
    /// Executor backend (self-hosting constructor only). kSim builds the
    /// sharded deterministic engine; kThreads runs each node's CHT on a
    /// real std::thread with wall-clock latency (nondeterministic;
    /// faults and reconfiguration unsupported — see backend_threads.hpp).
    Backend backend = Backend::kSim;
  };

  /// Legacy: run on a caller-owned single-threaded engine.
  Runtime(sim::Engine& eng, Config cfg);
  /// Self-hosting: build a ShardedEngine with cfg.shards spatial shards
  /// (lookahead = the network's minimum cross-node latency) and run the
  /// cluster on it. cfg.shards == 1 still exercises the windowed
  /// schedule, which is what the shard-invariance goldens compare
  /// against.
  explicit Runtime(Config cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The engine of the calling context: on the sharded runtime a worker
  /// gets its shard's facade, on the threads runtime its node's wall-
  /// clock facade, and everything else the global facade, so existing
  /// `rt.engine().now()` call sites stay correct unchanged.
  [[nodiscard]] sim::Engine& engine() { return transport_->context_engine(); }
  /// Current time of the calling context via the transport seam:
  /// simulated ns on the sim backend (legacy or sharded — identical to
  /// engine().now()), wall-clock ns since transport start on threads.
  /// Workload code should prefer this over engine().now().
  [[nodiscard]] sim::TimeNs now() { return transport_->now(); }
  /// The executor seam the runtime schedules through.
  [[nodiscard]] Transport& transport() { return *transport_; }
  [[nodiscard]] Backend backend() const { return transport_->kind(); }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const ArmciParams& params() const { return cfg_.armci; }
  /// Live QoS switch (ArmciParams::qos). Every CHT queue reads it
  /// through a pointer, so set_qos() switches the whole request path in
  /// place — no reconstruction, no drain. Call it only from a serial
  /// context (main thread, or a global-node task): it mutates state
  /// every shard reads.
  [[nodiscard]] bool qos() const { return cfg_.armci.qos; }
  void set_qos(bool on) { cfg_.armci.qos = on; }
  [[nodiscard]] GlobalMemory& memory() { return memory_; }
  /// The currently installed topology. Do not cache the reference
  /// across a suspension point — a reconfiguration may swap it.
  [[nodiscard]] const core::VirtualTopology& topology() const {
    return topo_mgr_.current();
  }
  /// Epoch-versioned topology holder (epoch 0 = construction-time).
  [[nodiscard]] const TopologyManager& topology_manager() const {
    return topo_mgr_;
  }
  [[nodiscard]] std::uint64_t topology_epoch() const {
    return topo_mgr_.epoch();
  }
  [[nodiscard]] net::Network& network() { return network_; }
  /// Protocol counters. On the sharded runtime a worker thread gets its
  /// shard's private slot (folded into the main struct between runs);
  /// reads from the main thread see the folded totals.
  [[nodiscard]] RuntimeStats& stats() {
    if (ShardSlot* s = context_slot()) return s->stats;
    return stats_;
  }
  /// Latency tracer; call tracer().enable() before spawning programs.
  /// Sharded: workers record into per-shard slots, merged and sorted
  /// into a canonical order when the run folds.
  [[nodiscard]] OpTracer& tracer() {
    if (ShardSlot* s = context_slot()) return s->tracer;
    return tracer_;
  }

  [[nodiscard]] std::int64_t num_nodes() const { return cfg_.num_nodes; }
  [[nodiscard]] int procs_per_node() const { return cfg_.procs_per_node; }
  [[nodiscard]] std::int64_t num_procs() const {
    return cfg_.num_nodes * cfg_.procs_per_node;
  }
  [[nodiscard]] core::NodeId node_of(ProcId p) const {
    return static_cast<core::NodeId>(p / cfg_.procs_per_node);
  }
  /// Buffer credits per directed edge: buffers_per_process for every
  /// process on the sending node.
  [[nodiscard]] std::int64_t credits_per_edge() const {
    return static_cast<std::int64_t>(cfg_.armci.buffers_per_process) *
           cfg_.procs_per_node;
  }

  [[nodiscard]] Proc& proc(ProcId p);
  [[nodiscard]] Cht& cht(core::NodeId n);
  [[nodiscard]] CreditBank& credits(core::NodeId n);
  /// Recycling pool all CHT-mediated requests are drawn from (the
  /// calling shard's pool on the sharded runtime; remote frees route
  /// home through the serial phase).
  [[nodiscard]] RequestPool& request_pool() {
    if (ShardSlot* s = context_slot()) return s->pool;
    return request_pool_;
  }

  /// Spawn `program` as the body of process `p`. The callable (and any
  /// lambda captures) is kept alive by the Runtime until destruction —
  /// coroutine lambdas reference their captures through the callable
  /// object, which must outlive the coroutine.
  void spawn(ProcId p, std::function<sim::Co<void>(Proc&)> program);
  /// Spawn the same program on every process.
  void spawn_all(const std::function<sim::Co<void>(Proc&)>& program);
  /// Spawn an auxiliary task not tied to a process (helpers, monitors).
  void spawn_task(sim::Co<void> task);

  /// Run to completion. Throws DeadlockError if application tasks are
  /// left suspended after the event queue drains.
  void run_all();
  /// Run until `deadline`; returns true when all application tasks
  /// finished. Does not throw on deadlock (callers inspect live_tasks()).
  bool run_for(sim::TimeNs deadline) { return run_engine(deadline); }
  [[nodiscard]] std::int64_t live_tasks() const {
    std::int64_t n = live_;
    for (const ShardSlot& s : shard_slots_) n += s.live;
    return n;
  }

  /// Quiescence invariants after a clean run: every credit bank has all
  /// credits free and no parked waiter, every request returned to the
  /// pool, and no request was ever forwarded past the topology's
  /// max-forwards bound. Aborts (validate_fail) on violation. run_all()
  /// calls this automatically when built with -DVTOPO_VALIDATE; the
  /// validate ctest calls it explicitly in any build.
  void validate_quiescent();

  /// Live topology reconfiguration (paper Sec. IV-B made executable).
  /// Quiesces the request path — new CHT-mediated ops park at the
  /// reconfiguration fence while in-flight requests, forwards, credit
  /// acks, and credit waiters drain — then plans the remap, verifies the
  /// transition schedule is deadlock-free at every intermediate state
  /// (under VTOPO_VALIDATE), remaps every node's credit bank, installs
  /// the new topology (epoch bump), and resumes parked ops in FIFO issue
  /// order. Returns false (and does nothing) when `to` is already the
  /// current kind, or when `to` is the hypercube on a non-power-of-two
  /// node count. The remap stall is charged via the ArmciParams
  /// reconfig_* cost model; see last_reconfig() for the accounting.
  ///
  /// Unlock ops bypass the fence, so reconfiguring concurrently with
  /// held locks completes as long as holders eventually unlock without
  /// first issuing other CHT-mediated ops.
  [[nodiscard]] sim::Co<bool> reconfigure(
      core::TopologyKind to, ReconfigMode mode = ReconfigMode::kIncremental);
  /// Accounting of the most recent completed reconfiguration.
  [[nodiscard]] const ReconfigReport& last_reconfig() const {
    return last_reconfig_;
  }
  [[nodiscard]] bool reconfig_active() const { return reconfig_active_; }

  /// Awaited at the top of every CHT-mediated issue path: no-op (ready)
  /// while no reconfiguration is in progress, parks the op FIFO at the
  /// fence otherwise.
  struct [[nodiscard]] ReconfigFence {
    Runtime* rt;
    bool await_ready() const { return !rt->reconfig_active_; }
    void await_suspend(std::coroutine_handle<> h) { rt->park_at_fence(h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] ReconfigFence reconfig_fence() { return ReconfigFence{this}; }

  /// In-flight accounting of CHT-mediated requests: issued past the
  /// fence -> response delivered back at the origin. This — not
  /// RequestPool::live() — is the reconfigure drain condition, because
  /// ops parked at the fence (and unissued chunks held in their frames)
  /// legitimately hold pooled requests while the remap runs.
  void note_request_issued() { ++inflight_slot(); }
  void note_request_completed() { --inflight_slot(); }
  [[nodiscard]] std::int64_t inflight_requests() const {
    std::int64_t n = inflight_requests_;
    for (const ShardSlot& s : shard_slots_) n += s.inflight;
    return n;
  }

  /// Full-membership barrier support (used via Proc::barrier()): the
  /// returned future is fulfilled once every process has arrived.
  [[nodiscard]] sim::Future<int> barrier_wait();
  /// GA-style global sum (ga_dgop): every process contributes `value`
  /// and receives the total. Modeled as an idealized binomial tree with
  /// barrier-like latency; arithmetic is exact and host-side.
  [[nodiscard]] sim::Future<double> allreduce_sum(double value);

  /// Request ids are the CHT dedup keys; they only need to be unique,
  /// not dense. Issue paths in a node context (sharded and threads
  /// executors run them concurrently) draw from the node's own
  /// node-tagged sequence — deterministic per node, no shared counter;
  /// everything else (the legacy engine) from one runtime counter.
  [[nodiscard]] std::uint64_t next_request_id() {
    const int node = sim::current_node();
    if (node >= 0 && node < cfg_.num_nodes) {
      return (static_cast<std::uint64_t>(node + 1) << 40) |
             ++req_seq_[static_cast<std::size_t>(node)];
    }
    return ++request_id_;
  }

  /// Stream-table identities at destination NICs: one per CHT and one
  /// per process.
  [[nodiscard]] net::Network::StreamKey cht_stream(core::NodeId n) const {
    return n;
  }
  [[nodiscard]] net::Network::StreamKey proc_stream(ProcId p) const {
    return num_nodes() + p;
  }

  // ---------------------------------------------------------------- faults

  /// True when a FaultPlan with any actual fault is installed. Every
  /// fault/retry/heal code path below is behind this flag; when false,
  /// the protocol schedules the exact same events as a build without the
  /// fault subsystem (byte-identical figures).
  [[nodiscard]] bool faults_armed() const { return injector_ != nullptr; }

  /// Node currently crashed (its NIC drops arriving protocol messages)?
  [[nodiscard]] bool node_down(core::NodeId n) const {
    return injector_ != nullptr && node_down_[static_cast<std::size_t>(n)];
  }
  /// CHT service-time multiplier of a slowed node (1.0 = nominal).
  [[nodiscard]] double node_slow_factor(core::NodeId n) const {
    return injector_ == nullptr ? 1.0
                                : node_slow_[static_cast<std::size_t>(n)];
  }
  /// Node currently routed around by the self-healing overlay?
  [[nodiscard]] bool healed(core::NodeId n) const {
    return injector_ != nullptr && healed_[static_cast<std::size_t>(n)];
  }

  /// Routing with the self-healing overlay applied: normally the
  /// topology's next_hop, but when that intermediate hop is marked dead
  /// the sender dedicates direct buffers to the final target
  /// (CreditBank::ensure_edge) and bypasses the hop. Direct delivery
  /// executes at the target without further forwarding, so the overlay
  /// adds no hold-and-wait edge to the buffer dependency graph (LDF
  /// deadlock freedom is preserved) and the per-request forwarding count
  /// can only shrink (the max_forwards bound still holds).
  [[nodiscard]] core::NodeId next_hop_for(core::NodeId src,
                                          core::NodeId dst);

  /// Install / clear the heal-around overlay for `dead`. Public so the
  /// chaos tests can exercise the overlay deterministically; normally
  /// driven by crash events and by consecutive first-hop timeouts.
  void heal_around(core::NodeId dead);
  void unheal(core::NodeId node);

  /// Send one CHT-mediated request message src -> dst (fault-aware when
  /// armed; plain Network::deliver otherwise). The request's upstream
  /// fields must already describe this hop.
  void send_request_msg(RequestPtr r, core::NodeId src, core::NodeId dst,
                        std::int64_t wire_bytes,
                        net::Network::StreamKey stream);
  /// Send the buffer-credit ack `from` -> `upstream` releasing one
  /// credit of edge (from <- upstream) on arrival.
  void send_ack_msg(core::NodeId from, core::NodeId upstream);
  /// Send the response for `req` back to its origin node. Completion is
  /// gated on the origin's future: the first response to arrive
  /// completes the op, later (duplicate) responses are absorbed.
  void send_response_msg(RequestPtr req, Response resp, core::NodeId from,
                         std::int64_t wire_bytes);
  /// Spawn the per-request timeout/retry watchdog for an eligible op
  /// (faults armed, inter-node, non-lock, response future attached).
  /// The issue path checks eligibility and calls this once per op.
  void arm_retry_watchdog(const RequestPtr& r);

 private:
  /// Everything shard-local under the parallel engine, one per shard,
  /// cache-line separated: counters and recyclers a worker thread
  /// touches on its hot path without synchronization. Folded into the
  /// main members between runs.
  struct alignas(64) ShardSlot {
    RuntimeStats stats;
    OpTracer tracer;
    RequestPool pool;
    std::int64_t live = 0;
    std::int64_t inflight = 0;
  };
  /// The calling context's slot (Transport::context_slot), or null for
  /// the main members — always null on the legacy engine, which keeps
  /// no slots.
  [[nodiscard]] ShardSlot* context_slot() {
    if (shard_slots_.empty()) return nullptr;
    const int s = transport_->context_slot();
    return s < 0 ? nullptr : &shard_slots_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::int64_t& inflight_slot() {
    if (ShardSlot* s = context_slot()) return s->inflight;
    return inflight_requests_;
  }
  [[nodiscard]] std::int64_t& live_slot() {
    if (ShardSlot* s = context_slot()) return s->live;
    return live_;
  }

  /// An op parked at the reconfiguration fence (node -1 on the legacy
  /// runtime; sharded resumes go back to the parking node's shard).
  struct FenceWaiter {
    std::coroutine_handle<> h;
    std::int32_t node = -1;
  };
  void park_at_fence(std::coroutine_handle<> h);

  void init();
  /// Drive the executor until drained (or past `deadline`), then fold
  /// the per-slot counters and tracers into the main members and empty
  /// the slots. Returns true when every application task finished.
  bool run_engine(sim::TimeNs deadline = Transport::kForever);
  void fold_slots();
  void stop_chts();
  [[nodiscard]] bool request_path_quiescent() const;

  // Fault-path internals (all no-ops while disarmed).
  void apply_fault(const sim::FaultEvent& e, bool begin);
  /// Reclaim the buffer-credit lease a lost message would have returned:
  /// after a fixed delivery timeout, release one credit of edge
  /// (holder's bank, toward `receiver`).
  void reclaim_lease(core::NodeId holder, core::NodeId receiver);
  /// Deep copy of a request for duplication / retry. The clone shares
  /// the original's id (the dedup sequence number) and response future;
  /// hop bookkeeping is reset.
  [[nodiscard]] RequestPtr clone_request(const Request& r);
  /// Per-request watchdog: wakes every (backed-off) timeout and
  /// re-issues the op until the shared response future is fulfilled.
  /// Aborts via validate_fail after retry_max_attempts wasted attempts.
  [[nodiscard]] sim::Co<void> retry_watchdog(RequestPtr r,
                                             sim::Future<Response> fut,
                                             core::NodeId first_hop);
  /// Re-issue one retry copy from the origin (credit acquire + send).
  /// Bypasses the reconfiguration fence: the logical op was already
  /// admitted, and the quiesce loop is waiting for its completion.
  [[nodiscard]] sim::Co<void> reissue(RequestPtr r);
  void note_first_hop_timeout(core::NodeId hop);
  void note_first_hop_ok(core::NodeId hop);
  /// Serial body of heal_around (also reached from a first-hop timeout).
  void apply_heal_around(core::NodeId dead);
  /// The fault a protocol message src -> dst suffers: none while faults
  /// are disarmed, for an intra-node hop and for lock traffic (modeled
  /// reliable); a forced drop across a severed edge or into a crashed
  /// node; otherwise the injector's draw for `cls`.
  [[nodiscard]] sim::FaultInjector::MsgFault message_fault(
      core::NodeId src, core::NodeId dst,
      sim::FaultInjector::MsgClass cls, bool lock_traffic);
  /// How a protocol message travels: a closure posted to dst's worker on
  /// the threads backend (a real hand-off, no modeled wire),
  /// Network::deliver_delayed on the simulators.
  void travel(core::NodeId src, core::NodeId dst, std::int64_t bytes,
              net::Network::StreamKey stream, sim::TimeNs delay,
              sim::InlineFn on_arrival);
  /// Modeled latency of a collective: `traversals` binomial-tree passes
  /// over every process.
  [[nodiscard]] sim::TimeNs collective_latency(int traversals) const;

  // Declared first so the engine (and every facade captured from it)
  // outlives all other members during destruction. Null on the legacy
  // external-engine runtime. At most one of sharded_/threads_ is set;
  // past construction they are read only where the backends genuinely
  // differ (pool homing, shard-memory accounting, message travel, the
  // threads collectives' rendezvous).
  std::unique_ptr<sim::ShardedEngine> sharded_;
  std::unique_ptr<Transport> transport_;
  /// Non-owning view of transport_ when it is the threads backend (its
  /// dtor — worker join — runs when transport_ destructs, after every
  /// actor holding a facade reference is gone).
  ThreadsTransport* threads_ = nullptr;
  sim::Engine* eng_;  ///< the global-context facade
  Config cfg_;
  GlobalMemory memory_;
  TopologyManager topo_mgr_;
  net::Network network_;
  // Declared before the actors so the pools outlive every RequestPtr
  // still parked in CHT lock queues at teardown. The per-shard slots (a
  // deque: slots must not move under workers' references) live here for
  // the same lifetime reason.
  RequestPool request_pool_;
  std::deque<ShardSlot> shard_slots_;
  std::vector<std::unique_ptr<Cht>> chts_;
  std::vector<std::unique_ptr<CreditBank>> credit_banks_;
  // Deque: procs are built in place and never move (program coroutines
  // hold Proc&), without one heap block per proc.
  std::deque<Proc> procs_;
  RuntimeStats stats_;
  OpTracer tracer_;
  // Deque: growth must not move stored callables (coroutines hold
  // references into them).
  std::deque<std::function<sim::Co<void>(Proc&)>> programs_;
  std::vector<std::uint64_t> req_seq_;  ///< per-node request-id streams
  std::uint64_t request_id_ = 0;
  std::int64_t live_ = 0;
  bool chts_stopped_ = false;

  // Fault-injection state (empty/null while disarmed).
  std::unique_ptr<sim::FaultInjector> injector_;
  std::vector<char> node_down_;
  std::vector<double> node_slow_;
  std::vector<char> healed_;
  bool any_healed_ = false;
  std::vector<int> first_hop_timeouts_;  ///< consecutive, per hop node
  struct SeizedCredits {
    core::NodeId bank;
    core::NodeId edge;
    std::int64_t count;
  };
  std::vector<SeizedCredits> seized_;  ///< active kBufferExhaust outages

  // Reconfiguration state.
  bool reconfig_active_ = false;
  std::int64_t inflight_requests_ = 0;
  std::vector<FenceWaiter> reconfig_waiters_;  ///< FIFO
  ReconfigReport last_reconfig_;

  // Barrier state.
  std::int64_t barrier_arrived_ = 0;
  std::vector<sim::Future<int>> barrier_futures_;
  // Allreduce state.
  std::int64_t reduce_arrived_ = 0;
  double reduce_sum_ = 0.0;
  std::vector<sim::Future<double>> reduce_futures_;
};

}  // namespace vtopo::armci
