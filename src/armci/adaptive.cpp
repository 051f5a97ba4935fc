#include "armci/adaptive.hpp"

#include <sstream>
#include <utility>

#include "core/recommend.hpp"

namespace vtopo::armci {

namespace {

std::uint64_t atomic_op_count(const OpTracer& t) {
  return t.series(TraceKind::kFetchAdd).size() +
         t.series(TraceKind::kSwap).size() +
         t.series(TraceKind::kLock).size();
}

}  // namespace

AdaptiveController::AdaptiveController(Runtime& rt, AdaptiveConfig cfg)
    : rt_(&rt), cfg_(cfg) {
  // Per-kind series are enough to measure skew; the bounded event log
  // stays off.
  if (!rt_->tracer().enabled()) rt_->tracer().enable();
  // Establish the cold baseline so qos_hot_active_ matches the runtime
  // from the first boundary on (ctor runs at setup — serial, safe).
  if (cfg_.manage_qos) rt_->set_qos(false);
}

void AdaptiveController::retune_qos(double skew,
                                    std::ostringstream& decision) {
  const bool hot = skew >= cfg_.qos_hotspot_threshold;
  decision << " qos=" << (hot ? "hot" : "cold");
  if (hot == qos_hot_active_) return;
  qos_hot_active_ = hot;
  ++qos_retunes_;
  Runtime* rt = rt_;
  // The switch is read by every shard's CHT queues; write it serially
  // so the change lands between windows.
  rt_->transport().run_serial([rt, hot] { rt->set_qos(hot); });
}

AdaptiveController::Sample AdaptiveController::take_sample() {
  const RuntimeStats& s = rt_->stats();
  const std::uint64_t atomics = atomic_op_count(rt_->tracer());
  Sample w;
  w.window_requests = s.requests - prev_requests_;
  w.window_atomics = atomics - prev_atomics_;
  w.credit_blocked_ns = s.credit_blocked_ns - prev_blocked_;
  const std::uint64_t fwd = s.forwards - prev_forwards_;
  if (w.window_requests > 0) {
    w.hotspot_fraction = static_cast<double>(w.window_atomics) /
                         static_cast<double>(w.window_requests);
    w.avg_forward_depth =
        static_cast<double>(fwd) / static_cast<double>(w.window_requests);
  }
  w.window_retries = s.retries - prev_retries_;
  prev_requests_ = s.requests;
  prev_atomics_ = atomics;
  prev_forwards_ = s.forwards;
  prev_blocked_ = s.credit_blocked_ns;
  prev_retries_ = s.retries;
  return w;
}

sim::Co<bool> AdaptiveController::maybe_reconfigure(
    std::optional<double> next_hotspot) {
  const Sample w = take_sample();
  last_sample_ = w;

  std::ostringstream decision;
  decision << "window: requests=" << w.window_requests
           << " hotspot=" << w.hotspot_fraction
           << " fwd_depth=" << w.avg_forward_depth
           << " blocked_us=" << sim::to_us(w.credit_blocked_ns);
  // Failure detection feed: retry pressure from the self-healing
  // request path shows up in the boundary decision log.
  if (w.window_retries > 0) decision << " retries=" << w.window_retries;
  if (next_hotspot) decision << " hint=" << *next_hotspot;

  // QoS tracks the upcoming phase's skew under the same trust rule as
  // the topology choice: a hint always counts, a measured window only
  // when it carried enough traffic.
  if (cfg_.manage_qos &&
      (next_hotspot || w.window_requests >= cfg_.min_window_requests)) {
    retune_qos(next_hotspot.value_or(w.hotspot_fraction), decision);
  }

  // A hint describes the *upcoming* phase, so the just-closed window's
  // traffic volume is not a reason to distrust it.
  if (!next_hotspot && w.window_requests < cfg_.min_window_requests) {
    decision << " -> too little traffic, hold "
             << core::to_string(rt_->topology().kind());
    decisions_.push_back(decision.str());
    co_return false;
  }

  core::WorkloadProfile profile;
  profile.num_nodes = rt_->num_nodes();
  profile.buffer_budget_mb = cfg_.buffer_budget_mb;
  profile.hotspot_fraction = next_hotspot.value_or(w.hotspot_fraction);
  profile.latency_sensitivity = cfg_.latency_sensitivity;
  profile.mem.procs_per_node = rt_->procs_per_node();
  profile.mem.buffer_bytes = rt_->params().buffer_bytes;
  profile.mem.buffers_per_process = rt_->params().buffers_per_process;
  const core::Recommendation rec = core::recommend_topology(profile);

  if (rec.kind == rt_->topology().kind()) {
    decision << " -> hold " << core::to_string(rec.kind);
    decisions_.push_back(decision.str());
    co_return false;
  }
  decision << " -> switch " << core::to_string(rt_->topology().kind())
           << " to " << core::to_string(rec.kind);
  decisions_.push_back(decision.str());
  const bool switched = co_await rt_->reconfigure(rec.kind);
  if (switched) ++switches_;
  co_return switched;
}

}  // namespace vtopo::armci
