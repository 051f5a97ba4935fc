// Communication helper thread (CHT) actor.
//
// One CHT per node services CHT-mediated requests serially: it either
// executes the operation (when this node hosts the target process) or
// forwards the request one hop along the virtual topology. Handling a
// request holds the receive buffer the request occupies; the buffer is
// released — by acknowledging the upstream node — once the request has
// been executed, absorbed (lock waiters), or forwarded onward. While a
// forwarding CHT waits for a downstream buffer credit it therefore
// blocks holding a buffer: the hold-and-wait edge that makes forwarding
// order a deadlock question (see core/dependency_graph.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "armci/qos_queue.hpp"
#include "armci/request.hpp"
#include "sim/task.hpp"

namespace vtopo::armci {

class Runtime;

class Cht {
 public:
  Cht(Runtime& rt, core::NodeId node);

  [[nodiscard]] core::NodeId node() const { return node_; }

  /// Begin the service loop (spawned as a detached coroutine).
  void start();
  /// Push a poison request; the service loop exits after draining.
  void stop();

  /// Deliver a request to this CHT (called from network arrival events).
  /// The only sanctioned entry into the service queue: it stamps the
  /// enqueue time (per-class queue-wait accounting) and keeps the
  /// backlog high-water. queue_ is private, so no other caller can
  /// push into it.
  void submit(RequestPtr r);

  /// Queue depth right now (diagnostics; excludes the shutdown poison).
  [[nodiscard]] std::size_t backlog() const { return queue_.size(); }
  /// Requests this CHT has handled (executed or forwarded).
  [[nodiscard]] std::uint64_t handled() const { return handled_; }
  /// Total simulated time this CHT spent servicing requests.
  [[nodiscard]] sim::TimeNs busy_ns() const { return busy_ns_; }

 private:
  /// State of one simulated ARMCI mutex.
  struct LockState {
    bool held = false;
    ProcId holder = -1;
    std::deque<RequestPtr> waiters;
  };

  /// One remembered completion of a non-idempotent request, keyed by its
  /// idempotent sequence number (origin process, request id).
  struct DedupEntry {
    ProcId origin = 0;
    std::uint64_t id = 0;
    std::int64_t value = 0;
  };

  sim::Co<void> run_loop();
  sim::Co<void> handle(RequestPtr r);
  sim::Co<void> forward(RequestPtr r);
  void execute(const RequestPtr& r);
  void send_response(const RequestPtr& r, Response resp);
  /// Release the buffer credit the current hop consumed (if any).
  void release_upstream(const Request& r);
  [[nodiscard]] const DedupEntry* find_dedup(ProcId origin,
                                             std::uint64_t id) const;
  void remember_dedup(ProcId origin, std::uint64_t id, std::int64_t value);

  /// CHT time to decode/copy one request (and gather its response).
  [[nodiscard]] sim::TimeNs handle_cost(const Request& r) const;

  Runtime* rt_;
  core::NodeId node_;
  QosQueue queue_;
  /// Mutexes hosted here, keyed by (owner process, mutex id).
  std::map<std::pair<ProcId, std::int32_t>, LockState> locks_;
  sim::TimeNs last_active_ = std::numeric_limits<sim::TimeNs>::min() / 4;
  std::uint64_t handled_ = 0;
  sim::TimeNs busy_ns_ = 0;
  std::vector<DedupEntry> dedup_;  ///< empty while faults are disarmed
  std::size_t dedup_next_ = 0;     ///< ring cursor once at capacity
};

}  // namespace vtopo::armci
