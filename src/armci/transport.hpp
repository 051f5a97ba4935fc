// Transport/executor seam between the ARMCI runtime and its backends.
//
// The runtime's protocol machinery (Proc issue paths, CHT actors and
// their QoS queues, CreditBank) is written against two primitives only:
//
//   * a per-node `sim::Engine` handle — the *executor facade* — that
//     provides schedule_at/schedule_after/schedule_on_node/now for the
//     node currently running, and
//   * this `Transport` interface, the one place that knows which
//     executor runs the cluster: cross-node scheduling (post/
//     post_after), node contexts for driver-thread work, serial and
//     global-context execution, per-context state slots, and the
//     run-to-quiescence loop (drive).
//
// Three executors implement the pair today:
//
//   * LegacyTransport (this header): the single-threaded `sim::Engine`.
//     Every call forwards to the exact engine entry point the runtime
//     used before the seam existed, so the legacy goldens stay
//     byte-identical.
//   * ShardedTransport (this header): the spatially sharded
//     `sim::ShardedEngine` (deterministic at every shard count).
//   * ThreadsTransport (armci/backend_threads.hpp): one std::thread per
//     node, wall-clock time, real shared-memory copies.
//
// Everything above the seam — request wire format, credit accounting,
// retry/dedup, QoS classes — is backend-agnostic by construction.
#pragma once

#include <limits>

#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/time.hpp"

namespace vtopo::armci {

/// Which executor the runtime schedules on.
enum class Backend {
  kSim,      ///< deterministic simulated clock (legacy or sharded engine)
  kThreads,  ///< one std::thread per node, steady_clock wall time
};

class Transport {
 public:
  /// drive() deadline meaning "until no work is pending".
  static constexpr sim::TimeNs kForever =
      std::numeric_limits<sim::TimeNs>::max();

  virtual ~Transport() = default;

  [[nodiscard]] virtual Backend kind() const = 0;

  /// Executor facade for the calling context (TLS node under the sharded
  /// and threads backends; the single global engine otherwise).
  virtual sim::Engine& context_engine() = 0;

  /// Executor facade owning simulated node `node` (the global facade for
  /// global_node()).
  virtual sim::Engine& engine_for_node(int node) = 0;

  /// Current time of the calling context: simulated ns for the sim
  /// backend, wall-clock ns since transport start for threads.
  virtual sim::TimeNs now() = 0;

  /// Run `fn` on node `node` as soon as possible.
  virtual void post(int node, sim::InlineFn fn) {
    post_after(node, 0, std::move(fn));
  }

  /// Run `fn` on node `node` after `delay` ns (simulated or wall-clock,
  /// per backend).
  virtual void post_after(int node, sim::TimeNs delay, sim::InlineFn fn) = 0;

  /// Pseudo-node owning global-context work (reconfiguration drivers,
  /// fault outages, collective releases); -1 on the legacy engine, whose
  /// one context is already global.
  [[nodiscard]] virtual int global_node() const = 0;
  [[nodiscard]] sim::Engine& global_engine() {
    return engine_for_node(global_node());
  }

  /// Attribute driver-thread work (component construction, spawn
  /// segments, teardown) to `node`, so the engine references it captures
  /// and the events it creates belong to that node. A no-op on the
  /// legacy engine, and for a negative node.
  [[nodiscard]] virtual sim::NodeScope enter(int node) = 0;

  /// Run `fn` serially with respect to every node: between windows in
  /// (time, stamp) order on the sharded engine (immediately when called
  /// outside a window), immediately on the legacy engine. The threads
  /// backend also runs it immediately, which orders nothing against the
  /// other workers: the serial-phase users there (faults, live
  /// reconfiguration) are refused, and the collectives keep their own
  /// rendezvous.
  virtual void run_serial(sim::InlineFn fn) = 0;

  /// Schedule a global-context event at absolute time `t`. Call from a
  /// serial context only.
  virtual void schedule_global_at(sim::TimeNs t, sim::InlineFn fn) = 0;

  /// Run until no work is pending or, on the simulators, until the next
  /// event lies past `deadline` (the threads backend has no replayable
  /// notion of "stop at t" and always drives to quiescence). Blocking;
  /// called from the driver thread only.
  virtual void drive_until(sim::TimeNs deadline) = 0;
  void drive() { drive_until(kForever); }

  /// Per-context stats/tracer/pool slots the runtime keeps (0 = only its
  /// main members), and the slot of the calling context (-1 = main).
  [[nodiscard]] virtual int num_slots() const = 0;
  [[nodiscard]] virtual int context_slot() const = 0;
};

/// The legacy single-threaded engine: one context and inline serial
/// work; each call is the engine call the runtime made before the seam
/// existed.
class LegacyTransport final : public Transport {
 public:
  explicit LegacyTransport(sim::Engine& eng) : eng_(&eng) {}

  [[nodiscard]] Backend kind() const override { return Backend::kSim; }
  sim::Engine& context_engine() override { return *eng_; }
  sim::Engine& engine_for_node(int /*node*/) override { return *eng_; }
  sim::TimeNs now() override { return eng_->now(); }
  void post_after(int /*node*/, sim::TimeNs delay,
                  sim::InlineFn fn) override {
    eng_->schedule_after(delay, std::move(fn));
  }
  [[nodiscard]] int global_node() const override { return -1; }
  [[nodiscard]] sim::NodeScope enter(int /*node*/) override {
    return sim::NodeScope(-1);
  }
  void run_serial(sim::InlineFn fn) override { fn(); }
  void schedule_global_at(sim::TimeNs t, sim::InlineFn fn) override {
    eng_->schedule_at(t, std::move(fn));
  }
  void drive_until(sim::TimeNs deadline) override {
    if (deadline == kForever) {
      eng_->run();
    } else {
      eng_->run_until(deadline);
    }
  }
  [[nodiscard]] int num_slots() const override { return 0; }
  [[nodiscard]] int context_slot() const override { return -1; }

 private:
  sim::Engine* eng_;
};

/// The sharded deterministic engine: one slot per shard, serial work in
/// the between-windows phase, global events on the global pseudo-node.
class ShardedTransport final : public Transport {
 public:
  explicit ShardedTransport(sim::ShardedEngine& sharded) : sh_(&sharded) {}

  [[nodiscard]] Backend kind() const override { return Backend::kSim; }
  sim::Engine& context_engine() override { return sh_->context_engine(); }
  sim::Engine& engine_for_node(int node) override {
    return sh_->engine_for_node(node);
  }
  sim::TimeNs now() override { return sh_->context_now(); }
  void post_after(int node, sim::TimeNs delay, sim::InlineFn fn) override {
    sh_->schedule_on_node(node, sh_->context_now() + delay, std::move(fn));
  }
  [[nodiscard]] int global_node() const override {
    return sh_->global_node();
  }
  [[nodiscard]] sim::NodeScope enter(int node) override {
    return sim::NodeScope(node);
  }
  void run_serial(sim::InlineFn fn) override {
    sh_->post_serial(std::move(fn));
  }
  void schedule_global_at(sim::TimeNs t, sim::InlineFn fn) override {
    sh_->schedule_global_at(t, std::move(fn));
  }
  void drive_until(sim::TimeNs deadline) override {
    sh_->run_until(deadline);
  }
  [[nodiscard]] int num_slots() const override { return sh_->num_shards(); }
  [[nodiscard]] int context_slot() const override {
    const sim::ShardContext& c = sim::shard_context();
    if (c.parallel) return c.shard;
    // Node scopes and serial-phase posts run on the driver thread while
    // every worker is quiescent. They use the node's own shard slot, so
    // whatever they draw (a request made in a spawn segment, say) is
    // recycled by the worker that runs the node's later events.
    if (c.node >= 0 && c.node < sh_->num_nodes()) return sh_->shard_of(c.node);
    return -1;
  }

 private:
  sim::ShardedEngine* sh_;
};

}  // namespace vtopo::armci
