// Tunable parameters of the ARMCI-like runtime model.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace vtopo::armci {

struct ArmciParams {
  /// Request buffers dedicated to each remote process with a direct
  /// edge ("the number of buffers per process is 4", Sec. V-A).
  int buffers_per_process = 4;
  /// Size of each request buffer ("16KB"); CHT-mediated requests whose
  /// header+payload exceed this are split into multiple requests.
  std::int64_t buffer_bytes = 16 * 1024;
  /// Wire overhead of a request header / response header / credit ack.
  std::int64_t request_header_bytes = 64;
  std::int64_t response_header_bytes = 32;
  std::int64_t ack_bytes = 32;
  /// Wire overhead of a direct (RDMA) contiguous put/get descriptor.
  std::int64_t rdma_header_bytes = 40;

  /// CHT base cost to handle one request (dequeue, decode, dispatch).
  sim::TimeNs cht_service = sim::us(0.6);
  /// Extra CHT cost to forward a request to the next hop.
  sim::TimeNs cht_forward_extra = sim::us(0.4);
  /// CHT per-byte touch bandwidth (copy through shared memory).
  double cht_copy_bandwidth = 5.0e9;
  /// Wake-up penalty when a request reaches a CHT that has been idle
  /// longer than `cht_poll_window` (blocked in the network wait instead
  /// of actively polling). Actively-forwarding CHTs skip this — the
  /// mechanism behind the paper's observation that middle-band MFCG
  /// processes get *faster* under higher contention (Sec. V-B2).
  sim::TimeNs cht_wakeup = sim::us(3.0);
  sim::TimeNs cht_poll_window = sim::us(5.0);

  /// Live-reconfiguration cost model (Runtime::reconfigure): fixed
  /// administrative cost per reconfiguration, per-buffer-set build and
  /// teardown costs, and the polling interval of the quiesce loop.
  sim::TimeNs reconfig_admin = sim::us(25.0);
  sim::TimeNs reconfig_edge_build = sim::us(1.5);
  sim::TimeNs reconfig_edge_teardown = sim::us(0.5);
  sim::TimeNs reconfig_poll = sim::us(2.0);

  /// Self-healing request path (active only while a FaultPlan is armed;
  /// see docs/testing.md). Every CHT-mediated op except lock/unlock gets
  /// a watchdog: if the response has not arrived after `retry_timeout`,
  /// the origin re-issues an idempotent copy (same sequence id — the
  /// target CHT suppresses duplicate completions) and backs off
  /// exponentially up to `retry_backoff_cap`. After `retry_max_attempts`
  /// re-issues without a completion the run aborts via validate_fail (a
  /// lost completion is an invariant violation, not a soft error).
  sim::TimeNs retry_timeout = sim::us(2000.0);
  sim::TimeNs retry_backoff_cap = sim::us(16000.0);
  int retry_max_attempts = 10;
  /// Credit-lease reclamation: when a request or ack message is lost,
  /// the credit it pinned is returned to its pool after a NIC-level
  /// delivery timeout. Disabling it makes every lost ack leak a credit —
  /// the seeded violation behind the credit-leak validate test.
  bool lease_reclaim = true;

  /// Origin-side software cost to build and issue a one-sided op.
  sim::TimeNs proc_op_overhead = sim::us(0.3);
  /// Cost of executing an atomic (fetch-&-add / swap) at the target.
  sim::TimeNs atomic_exec = sim::us(0.2);
  /// Latency model of the (idealized tree) barrier: base + per-level.
  sim::TimeNs barrier_base = sim::us(2.0);
  sim::TimeNs barrier_per_level = sim::us(1.5);

  /// Criticality-aware QoS: every CHT queue serves the request classes
  /// by weighted deficit round-robin instead of FIFO (QosQueue). Off by
  /// default, and then the runtime schedules the exact events of the
  /// pre-QoS tree (figure goldens stay byte-identical). See
  /// docs/performance.md § QoS.
  bool qos = false;
};

}  // namespace vtopo::armci
