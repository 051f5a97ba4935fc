// Shared configuration and result types for the workload drivers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "armci/runtime.hpp"
#include "core/topology.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/task.hpp"

namespace vtopo::work {

/// Optional mid-run topology reconfiguration, armed by every workload
/// driver (arm_reconfigure): at `at_ms` of simulated time a monitor task
/// calls Runtime::reconfigure(to, mode) concurrently with the running
/// application.
struct ReconfigSpec {
  core::TopologyKind to = core::TopologyKind::kMfcg;
  double at_ms = 1.0;
  armci::ReconfigMode mode = armci::ReconfigMode::kIncremental;
};

/// Cluster-level knobs shared by every experiment.
struct ClusterConfig {
  std::int64_t num_nodes = 16;
  int procs_per_node = 4;
  core::TopologyKind topology = core::TopologyKind::kFcg;
  core::ForwardingPolicy policy = core::ForwardingPolicy::kLowestDimFirst;
  /// Optional explicit grid shape (see Runtime::Config::custom_shape).
  std::optional<core::Shape> custom_shape;
  std::uint64_t seed = 42;
  armci::ArmciParams armci{};
  net::NetworkParams net{};
  net::Placement placement = net::Placement::kLinear;
  std::int64_t segment_bytes = std::int64_t{8} << 20;
  /// When set, the workload reconfigures the live topology mid-run.
  std::optional<ReconfigSpec> reconfigure;
  /// Seeded chaos plan (see Runtime::Config::faults): injected faults
  /// plus the self-healing request path. Disarmed/unset plans change
  /// nothing (byte-identical runs).
  std::optional<sim::FaultPlan> faults;
  /// 0 = legacy single-threaded engine (byte-compatible with the
  /// original goldens). >= 1 = sharded engine with that many shards;
  /// sharded output is byte-identical across shard counts (including 1)
  /// but quantizes cross-node timing to the conservative window grid,
  /// so it is a distinct golden family from shards == 0.
  int shards = 0;
  sim::ThreadMode thread_mode = sim::ThreadMode::kAuto;
  /// Executor backend. kSim keeps the deterministic engines above;
  /// kThreads runs every node on a real std::thread with wall-clock
  /// latency and real shared-memory copies (nondeterministic timing —
  /// validated by invariants, not goldens; `shards` is ignored).
  armci::Backend backend = armci::Backend::kSim;

  [[nodiscard]] std::int64_t num_procs() const {
    return num_nodes * procs_per_node;
  }
  [[nodiscard]] armci::Runtime::Config runtime_config() const {
    armci::Runtime::Config cfg;
    cfg.num_nodes = num_nodes;
    cfg.procs_per_node = procs_per_node;
    cfg.topology = topology;
    cfg.policy = policy;
    cfg.custom_shape = custom_shape;
    cfg.armci = armci;
    cfg.net = net;
    cfg.placement = placement;
    cfg.segment_bytes = segment_bytes;
    cfg.seed = seed;
    cfg.faults = faults;
    cfg.shards = shards > 0 ? shards : 1;
    cfg.thread_mode = thread_mode;
    cfg.backend = backend;
    return cfg;
  }
};

/// Owns whatever engine/runtime pair a ClusterConfig asks for, so the
/// workload drivers are backend-agnostic: construct one of these, talk
/// to rt() through the Proc/Runtime API, read elapsed time through the
/// transport seam. The caller-owned legacy engine when shards == 0 on
/// the sim backend; the self-hosted sharded or threads runtime otherwise.
class ClusterHandle {
 public:
  explicit ClusterHandle(const ClusterConfig& cl) {
    if (cl.shards > 0 || cl.backend != armci::Backend::kSim) {
      rt_ = std::make_unique<armci::Runtime>(cl.runtime_config());
      return;
    }
    // The one place workload code still builds the legacy engine; its
    // event stream is the original golden family, byte for byte.
    eng_ = std::make_unique<sim::Engine>();
    rt_ = std::make_unique<armci::Runtime>(*eng_, cl.runtime_config());
  }
  [[nodiscard]] armci::Runtime& rt() { return *rt_; }
  /// Elapsed app time: simulated seconds on the sim backend (identical
  /// to the engine clock the drivers used to read), wall-clock seconds
  /// since runtime construction on the threads backend.
  [[nodiscard]] double elapsed_sec() { return sim::to_sec(rt_->now()); }

 private:
  std::unique_ptr<sim::Engine> eng_;  ///< legacy backend only
  std::unique_ptr<armci::Runtime> rt_;
};

/// A fully allocated workload instance bound to a runtime, ready to
/// spawn — the schedulable unit of the multi-tenant cluster service.
/// Each workload's make_*_job factory performs exactly the allocations
/// and shared-state setup its run_* driver performs before spawn_all,
/// so driving a program by hand (spawn_all(body) + run_all + checksum)
/// is byte-identical to the standalone driver.
struct JobProgram {
  /// Per-proc coroutine body; pass to Runtime::spawn_all.
  std::function<sim::Co<void>(armci::Proc&)> body;
  /// Reads the workload checksum out of runtime memory (valid at
  /// quiescence).
  std::function<double()> checksum;
  /// Per-measured-rank op latencies in microseconds (null unless the
  /// workload measures per-op timing; -1 entries mark unmeasured ranks).
  std::function<std::vector<double>()> op_latencies_us;
};

/// Result of one application run.
struct AppResult {
  double exec_time_sec = 0.0;       ///< simulated wall time of the app
  double checksum = 0.0;            ///< numeric check for correctness
  armci::RuntimeStats stats{};      ///< protocol counters
};

namespace detail {
inline sim::Co<void> reconfig_monitor(armci::Runtime* rt,
                                      ReconfigSpec spec) {
  co_await sim::Sleep(rt->engine(), sim::ms(spec.at_ms));
  const bool switched = co_await rt->reconfigure(spec.to, spec.mode);
  (void)switched;  // no-op when the app already runs on `spec.to`
}
}  // namespace detail

/// Arm the cluster's optional mid-run reconfiguration on `rt`. Every
/// workload driver calls this right after constructing its Runtime, so
/// `reconfigure=` works uniformly across experiments. The monitor is a
/// detached task: if the application finishes first, the remap executes
/// against an already-quiescent runtime (and still bumps the epoch).
inline void arm_reconfigure(armci::Runtime& rt, const ClusterConfig& cl) {
  if (!cl.reconfigure) return;
  rt.spawn_task(detail::reconfig_monitor(&rt, *cl.reconfigure));
}

}  // namespace vtopo::work
