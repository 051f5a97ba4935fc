// vtopo-lint: allow-file(nondeterminism) -- wall-clock scheduling is the
// point of this backend: event order is whatever the host threads make it.
//
// Threads backend: one real std::thread per simulated node.
//
// Each node owns a NodeExec: a `sim::Engine` *facade* in realtime mode
// plus the event queues its worker drains. The facade's ShardHook routes
// every schedule_at/schedule_on_node into those queues, so the whole
// protocol stack (CHT service loops, QosQueue wakeups, CreditBank
// hand-offs) runs unchanged on real threads.
// "Latency" is wall-clock: a due time is nanoseconds since transport
// start measured on steady_clock. Payload movement is a real memcpy
// between segments (see Proc::put/get threads branches).
//
// Executor. A worker keeps its timers in a private (due, seq) heap. What
// it posts to its own node (Sleeps, queue wakeups, same-node
// completions: most of the traffic) goes straight onto that heap, with
// no lock and no notify. Every other post, from another worker or the
// driver, is appended to the node's inbox under `mu`. The worker takes
// the whole batch at once and stamps seq as it moves the events into its
// heap, so events run in (due, seq) order and never before their due
// time. Before each event the worker loads an atomic post counter and
// drains the inbox first if it moved: a foreign post waits behind at
// most one local event.
//
// Waiting follows the paper's CHT (Sec. V-B2): a busy worker polls, an
// idle one blocks. A timer due within kSpinNs is awaited by spinning on
// the clock and the post counter. An empty heap is polled for kSpinNs,
// yielding the core between loads, before the worker parks on its
// condition variable; a poster notifies only a parked worker. Spinning
// pays only while every worker has a core of its own, so
// start_workers() enables it only when nodes + 1 <= host_cores();
// otherwise a worker parks at once. Workers run with 1 ns timer slack,
// so a timed park does not stretch a sub-microsecond modeled cost to the
// kernel's default 50 us slack.
//
// drive() needs to know when no work is left anywhere. pending_ counts
// each post sitting in an inbox plus one token per worker whose heap is
// non-empty or whose event is running. A worker's posts to itself ride
// on its token, so the hot path touches no shared counter.
//
// Memory confinement contract (what makes this TSan-clean):
//  * a node's facade, CHT, CreditBank, request-pool slot and memory
//    segment are touched only by that node's worker — or by the driver
//    thread while every worker is quiescent (the pending-count
//    handshake in drive() orders the two);
//  * a node's timer heap is touched only by its worker;
//  * its inbox and parked flag are guarded by its `mu`;
//  * cross-node effects travel exclusively as posted closures;
//  * cross-thread completion (sim::Future) uses the realtime protocol,
//    which posts resumes at due=0 and never reads a foreign clock.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "armci/transport.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/time.hpp"

namespace vtopo::armci {

/// Cores in this process's affinity mask, as `nproc` counts them.
[[nodiscard]] int host_cores();

class ThreadsTransport final : public Transport {
 public:
  explicit ThreadsTransport(int num_nodes);
  ~ThreadsTransport() override;
  ThreadsTransport(const ThreadsTransport&) = delete;
  ThreadsTransport& operator=(const ThreadsTransport&) = delete;

  [[nodiscard]] Backend kind() const override { return Backend::kThreads; }
  sim::Engine& context_engine() override;
  sim::Engine& engine_for_node(int node) override;
  sim::TimeNs now() override { return wall_now(); }
  void post(int node, sim::InlineFn fn) override {
    post_at(node, 0, std::move(fn));
  }
  void post_after(int node, sim::TimeNs delay, sim::InlineFn fn) override {
    post_at(node, wall_now() + delay, std::move(fn));
  }
  /// Pseudo-node for driver-context tasks (reconfig monitors etc.);
  /// owns the last facade + worker.
  [[nodiscard]] int global_node() const override { return num_nodes_; }
  [[nodiscard]] sim::NodeScope enter(int node) override {
    return sim::NodeScope(node);
  }
  /// No between-windows phase exists on real threads (see
  /// Transport::run_serial).
  void run_serial(sim::InlineFn fn) override { fn(); }
  void schedule_global_at(sim::TimeNs t, sim::InlineFn fn) override {
    post_at(num_nodes_, t, std::move(fn));
  }
  /// Block until no posted work remains (queued or executing); the
  /// deadline is ignored. Workers are started lazily on the first call,
  /// so everything the driver thread did before — component
  /// construction, initial coroutine segments — is ordered before any
  /// worker by the std::thread ctor.
  void drive_until(sim::TimeNs deadline) override;
  /// One slot per node plus the global pseudo-node's; the driver thread
  /// (node -1) uses the runtime's main members.
  [[nodiscard]] int num_slots() const override { return num_nodes_ + 1; }
  [[nodiscard]] int context_slot() const override {
    const int node = sim::current_node();
    return node <= num_nodes_ ? node : -1;
  }

  /// Nanoseconds of steady_clock time since transport construction.
  [[nodiscard]] sim::TimeNs wall_now() const;
  /// Rendezvous guard for collective arrivals (Runtime barrier/reduce).
  [[nodiscard]] std::mutex& coll_mu() { return coll_mu_; }
  /// Total events run by all workers. Driver thread, quiescent only.
  [[nodiscard]] std::uint64_t events_executed() const;

 private:
  /// Routes facade schedules into the owning node's queue. Absolute
  /// times arriving here were computed against the facade's clock by
  /// its own worker (schedule_after) or are 0 (cross-thread posts).
  struct NodeHook final : sim::ShardHook {
    ThreadsTransport* t = nullptr;
    int self = -1;
    void hook_schedule(sim::TimeNs due, sim::InlineFn fn) override {
      t->post_at(self, due, std::move(fn));
    }
    void hook_schedule_on_node(int node, sim::TimeNs due,
                               sim::InlineFn fn) override {
      t->post_at(node, due, std::move(fn));
    }
  };

  struct TimedEv {
    sim::TimeNs due = 0;
    std::uint64_t seq = 0;
    sim::InlineFn fn;
  };

  /// Later-than comparator: std::push_heap keeps the earliest
  /// (due, seq) at the front.
  static bool ev_later(const TimedEv& a, const TimedEv& b) {
    if (a.due != b.due) return a.due > b.due;
    return a.seq > b.seq;
  }

  struct alignas(64) NodeExec {
    sim::Engine facade;
    NodeHook hook;
    // Worker-private.
    std::vector<TimedEv> heap;
    std::vector<TimedEv> spare;  ///< last drained batch, emptied
    std::uint64_t seq = 0;
    std::uint64_t seen = 0;  ///< `posts` as of the last drain
    std::uint64_t executed = 0;
    bool busy = false;  ///< holds a pending_ token: heap non-empty or running
    // Shared with posters; `posts` is bumped under `mu`.
    alignas(64) std::atomic<std::uint64_t> posts{0};
    std::mutex mu;
    std::condition_variable cv;
    std::vector<TimedEv> inbox;  ///< guarded by mu
    bool parked = false;         ///< guarded by mu
  };

  /// A timed futex wait shorter than the kernel's default timer slack
  /// (50 us) cannot be trusted to wake on time, so a worker spins
  /// through gaps up to this long, and polls this long before parking.
  static constexpr sim::TimeNs kSpinNs = 50'000;

  void post_at(int node, sim::TimeNs due, sim::InlineFn fn);
  static void push_timer(NodeExec& ex, sim::TimeNs due, sim::InlineFn fn);
  void drain_inbox(NodeExec& ex);
  /// Spin until a post arrives (true) or wall_now() reaches `until`.
  /// An idle poll yields between loads: the kernel often queues a thread
  /// this worker has just woken (a peer, the driver) on this worker's
  /// core, and a bare spin would make it wait out the whole poll.
  bool poll_posts(const NodeExec& ex, sim::TimeNs until, bool yield) const;
  /// Block until the inbox is non-empty, stop_, or `deadline` (kForever:
  /// none). The inbox is re-checked under `mu` before blocking.
  void park(NodeExec& ex, sim::TimeNs deadline);
  void run_next(NodeExec& ex, sim::TimeNs now);
  void worker_main(int node);
  void start_workers();

  const int num_nodes_;
  const std::chrono::steady_clock::time_point t0_;
  std::deque<NodeExec> execs_;  ///< num_nodes_ + 1 (global last)
  /// Inbox posts plus busy workers' tokens: zero exactly when no posted
  /// work remains.
  std::atomic<std::int64_t> pending_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::mutex coll_mu_;
  std::atomic<bool> stop_{false};
  bool started_ = false;  ///< driver thread only
  bool spin_ = false;     ///< set before the workers start
  std::vector<std::thread> workers_;
};

}  // namespace vtopo::armci
