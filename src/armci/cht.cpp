#include "armci/cht.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "armci/runtime.hpp"
#include "sim/validate.hpp"

namespace vtopo::armci {

Cht::Cht(Runtime& rt, core::NodeId node)
    : rt_(&rt), node_(node), queue_(rt.engine(), &rt.params().qos) {}

void Cht::start() { rt_->spawn_task(run_loop()); }

void Cht::stop() { queue_.poison(); }

void Cht::submit(RequestPtr r) {
  r->enqueued_ns = rt_->engine().now();
  queue_.push(std::move(r));
  RuntimeStats& stats = rt_->stats();
  stats.max_backlog = std::max<std::uint64_t>(stats.max_backlog,
                                              queue_.size());
}

sim::Co<void> Cht::run_loop() {
  for (;;) {
    RequestPtr r = co_await queue_.pop();
    if (!r) break;  // poison: shut down
    if (rt_->tracer().enabled()) {
      rt_->tracer().record(queue_wait_kind(r->cls), r->origin_proc,
                           r->enqueued_ns,
                           rt_->engine().now() - r->enqueued_ns);
    }
    // Polling model: a CHT that went idle longer than the polling window
    // blocked in the network wait and pays a wake-up penalty; an actively
    // busy/forwarding CHT is already polling and reacts immediately.
    const ArmciParams& p = rt_->params();
    if (rt_->engine().now() - last_active_ > p.cht_poll_window) {
      ++rt_->stats().cht_wakeups;
      co_await sim::Sleep(rt_->engine(), p.cht_wakeup);
    }
    co_await handle(std::move(r));
    last_active_ = rt_->engine().now();
  }
}

sim::TimeNs Cht::handle_cost(const Request& r) const {
  const ArmciParams& p = rt_->params();
  sim::TimeNs cost = p.cht_service;
  const std::int64_t touched =
      r.payload_bytes() + (r.target_node == node_
                               ? r.response_data_bytes()
                               : 0);
  cost += static_cast<sim::TimeNs>(static_cast<double>(touched) * 1e9 /
                                   p.cht_copy_bandwidth);
  if (r.target_node == node_ &&
      (r.op == OpCode::kFetchAdd || r.op == OpCode::kSwap)) {
    cost += p.atomic_exec;
  }
  return cost;
}

sim::Co<void> Cht::handle(RequestPtr r) {
  ++handled_;
  sim::TimeNs cost = handle_cost(*r);
  if (rt_->faults_armed()) {
    const double slow = rt_->node_slow_factor(node_);
    if (slow > 1.0) {
      cost = static_cast<sim::TimeNs>(static_cast<double>(cost) * slow);
    }
  }
  busy_ns_ += cost;
  co_await sim::Sleep(rt_->engine(), cost);
  if (r->target_node == node_) {
    execute(r);
  } else {
    // Forwarding may block on a downstream buffer credit. That wait
    // must NOT stall the service loop: a serial CHT that blocks
    // head-of-line couples otherwise-independent buffer classes and
    // deadlocks even under LDF (the Dally–Seitz argument requires each
    // resource class to drain independently). Park the forward as its
    // own task; the receive buffer it occupies stays held until the
    // forward actually goes out.
    rt_->spawn_task(forward(std::move(r)));
  }
}

sim::Co<void> Cht::forward(RequestPtr r) {
  const ArmciParams& p = rt_->params();
  const core::NodeId next = rt_->next_hop_for(node_, r->target_node);
  assert(next != node_);

  // Acquire a buffer credit at the next hop. While blocked here the
  // request still occupies this node's receive buffer (hold-and-wait).
  CreditBank& bank = rt_->credits(node_);
  const sim::TimeNs t0 = rt_->engine().now();
  co_await bank.acquire(next);
  const sim::TimeNs blocked = rt_->engine().now() - t0;
  bank.add_blocked(blocked);
  rt_->stats().credit_blocked_ns += blocked;

  co_await sim::Sleep(rt_->engine(), p.cht_forward_extra);

  // The buffer here is free once the copy has been pushed out: ack the
  // upstream node, then send the request onward.
  release_upstream(*r);
  r->upstream_node = node_;
  r->upstream_is_cht = true;
  r->hop_credit_taken = true;
  ++r->forwards;
  RuntimeStats& stats = rt_->stats();
  ++stats.forwards;
  stats.max_forwards_seen =
      std::max(stats.max_forwards_seen,
               static_cast<std::uint64_t>(r->forwards));
  // Every hop fixes one more coordinate toward the target, so no route
  // can exceed the topology's rank-1 forwarding bound (any policy).
  VTOPO_CHECK(r->forwards <= rt_->topology().max_forwards(),
              "request forwarded past the topology's max-forwards bound");

  const std::int64_t wire =
      p.request_header_bytes + r->payload_bytes();
  rt_->send_request_msg(std::move(r), node_, next, wire,
                        rt_->cht_stream(node_));
}

void Cht::release_upstream(const Request& r) {
  if (!r.hop_credit_taken) return;  // intra-node delivery took no credit
  rt_->send_ack_msg(node_, r.upstream_node);
}

void Cht::execute(const RequestPtr& r) {
  GlobalMemory& mem = rt_->memory();
  Response resp;
  bool respond_now = true;

  // Idempotent sequence numbers: duplicates of a mutating request
  // (retries of an op whose response was lost, or wire-duplicated
  // copies) must not re-apply their side effect — accumulates and
  // atomics would double-apply, and a late duplicate put could undo a
  // newer write to the same location. The dedup cache remembers
  // executed (origin, id) pairs with their result; a hit absorbs the
  // effect and resends the remembered response. Reads (kGetV/kGetS)
  // skip the cache: re-execution cannot disturb memory, and the
  // origin-side gate discards the extra response.
  const bool dedupable =
      rt_->faults_armed() &&
      (r->op == OpCode::kAcc || r->op == OpCode::kFetchAdd ||
       r->op == OpCode::kSwap || r->op == OpCode::kPutV ||
       r->op == OpCode::kPutS);
  if (dedupable) {
    if (const DedupEntry* e = find_dedup(r->origin_proc, r->id)) {
      ++rt_->stats().dup_suppressed;
      release_upstream(*r);
      Response cached;
      cached.value = e->value;
      send_response(r, std::move(cached));
      return;
    }
  }

  switch (r->op) {
    case OpCode::kPutV: {
      std::int64_t off = 0;
      for (const auto& seg : r->segs) {
        mem.write(GAddr{r->target_proc, seg.target_offset},
                  std::span<const std::uint8_t>(r->data).subspan(
                      static_cast<std::size_t>(off),
                      static_cast<std::size_t>(seg.bytes)));
        off += seg.bytes;
      }
      break;
    }
    case OpCode::kAcc: {
      std::int64_t off = 0;
      for (const auto& seg : r->segs) {
        const auto n = static_cast<std::size_t>(seg.bytes / 8);
        std::vector<double> vals(n);
        std::memcpy(vals.data(), r->data.data() + off, n * sizeof(double));
        mem.accumulate_f64(GAddr{r->target_proc, seg.target_offset}, vals,
                           r->scale);
        off += seg.bytes;
      }
      break;
    }
    case OpCode::kPutS: {
      const StridedDesc& d = r->strided;
      std::vector<std::int64_t> idx(static_cast<std::size_t>(d.levels), 0);
      std::int64_t src_off = 0;
      for (;;) {
        std::int64_t remote = d.base_offset;
        for (int l = 0; l < d.levels; ++l) {
          remote += idx[static_cast<std::size_t>(l)] *
                    d.strides[static_cast<std::size_t>(l)];
        }
        mem.write(GAddr{r->target_proc, remote},
                  std::span<const std::uint8_t>(r->data).subspan(
                      static_cast<std::size_t>(src_off),
                      static_cast<std::size_t>(d.block_bytes)));
        src_off += d.block_bytes;
        int l = 0;
        for (; l < d.levels; ++l) {
          if (++idx[static_cast<std::size_t>(l)] <
              d.counts[static_cast<std::size_t>(l)]) {
            break;
          }
          idx[static_cast<std::size_t>(l)] = 0;
        }
        if (l == d.levels) break;
      }
      break;
    }
    case OpCode::kGetS: {
      const StridedDesc& d = r->strided;
      resp.data.resize(static_cast<std::size_t>(d.total_bytes()));
      std::vector<std::int64_t> idx(static_cast<std::size_t>(d.levels), 0);
      std::int64_t dst_off = 0;
      for (;;) {
        std::int64_t remote = d.base_offset;
        for (int l = 0; l < d.levels; ++l) {
          remote += idx[static_cast<std::size_t>(l)] *
                    d.strides[static_cast<std::size_t>(l)];
        }
        mem.read(std::span<std::uint8_t>(resp.data)
                     .subspan(static_cast<std::size_t>(dst_off),
                              static_cast<std::size_t>(d.block_bytes)),
                 GAddr{r->target_proc, remote});
        dst_off += d.block_bytes;
        int l = 0;
        for (; l < d.levels; ++l) {
          if (++idx[static_cast<std::size_t>(l)] <
              d.counts[static_cast<std::size_t>(l)]) {
            break;
          }
          idx[static_cast<std::size_t>(l)] = 0;
        }
        if (l == d.levels) break;
      }
      break;
    }
    case OpCode::kGetV: {
      resp.data.resize(
          static_cast<std::size_t>(r->response_data_bytes()));
      std::int64_t off = 0;
      for (const auto& seg : r->segs) {
        mem.read(std::span<std::uint8_t>(resp.data)
                     .subspan(static_cast<std::size_t>(off),
                              static_cast<std::size_t>(seg.bytes)),
                 GAddr{r->target_proc, seg.target_offset});
        off += seg.bytes;
      }
      break;
    }
    case OpCode::kFetchAdd:
      resp.value = mem.fetch_add_i64(r->addr, r->imm);
      break;
    case OpCode::kSwap:
      resp.value = mem.swap_i64(r->addr, r->imm);
      break;
    case OpCode::kLock: {
      LockState& ls = locks_[{r->target_proc, r->mutex_id}];
      if (ls.held) {
        // Absorb into the waiter queue; the buffer is still released
        // below, and the grant response is sent at unlock time.
        ls.waiters.push_back(r);
        rt_->stats().lock_queue_max =
            std::max<std::uint64_t>(rt_->stats().lock_queue_max,
                                    ls.waiters.size());
        respond_now = false;
      } else {
        ls.held = true;
        ls.holder = r->origin_proc;
      }
      break;
    }
    case OpCode::kUnlock: {
      LockState& ls = locks_[{r->target_proc, r->mutex_id}];
      assert(ls.held && ls.holder == r->origin_proc &&
             "unlock by non-holder");
      if (!ls.waiters.empty()) {
        RequestPtr next = std::move(ls.waiters.front());
        ls.waiters.pop_front();
        ls.holder = next->origin_proc;
        send_response(next, Response{});  // grant to the next waiter
      } else {
        ls.held = false;
        ls.holder = -1;
      }
      break;
    }
  }

  if (dedupable && respond_now) {
    remember_dedup(r->origin_proc, r->id, resp.value);
  }
  release_upstream(*r);
  if (respond_now) send_response(r, std::move(resp));
}

void Cht::send_response(const RequestPtr& r, Response resp) {
  const ArmciParams& p = rt_->params();
  const std::int64_t wire = p.response_header_bytes +
                            static_cast<std::int64_t>(resp.data.size());
  // Response rides inside the arrival callback by move (InlineFn holds
  // move-only captures), and the future fulfilment is a typed member —
  // no shared_ptr<Response>, no std::function allocation. The runtime
  // wrapper gates completion at the origin (exactly-once under faults)
  // and lets the reconfigure quiesce proceed once every issued request
  // has completed and the credit acks have drained.
  rt_->send_response_msg(r, std::move(resp), node_, wire);
}

const Cht::DedupEntry* Cht::find_dedup(ProcId origin,
                                       std::uint64_t id) const {
  for (const DedupEntry& e : dedup_) {
    if (e.id == id && e.origin == origin) return &e;
  }
  return nullptr;
}

void Cht::remember_dedup(ProcId origin, std::uint64_t id,
                         std::int64_t value) {
  // Bound of the duplicate-completion cache. Dedup only matters for
  // non-idempotent ops (acc, fetch-&-add, swap); idempotent re-execution
  // is harmless and is not cached.
  constexpr std::size_t kDedupCacheEntries = 4096;
  if (dedup_.size() < kDedupCacheEntries) {
    dedup_.push_back(DedupEntry{origin, id, value});
  } else {
    // FIFO ring: overwrite the oldest remembered completion.
    dedup_[dedup_next_ % kDedupCacheEntries] = DedupEntry{origin, id, value};
    ++dedup_next_;
  }
}

}  // namespace vtopo::armci
