// vtopo-lint: allow-file(nondeterminism) -- wall-clock backend.
#include "armci/backend_threads.hpp"

#ifdef __linux__
#include <sched.h>
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cassert>

namespace vtopo::armci {

namespace {

/// The NodeExec whose worker is the calling thread; null on the driver
/// and on every thread outside this backend. (sim::current_node() cannot
/// tell: the driver sets it too, through Transport::enter.)
thread_local const void* tls_worker_exec = nullptr;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

int host_cores() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

ThreadsTransport::ThreadsTransport(int num_nodes)
    : num_nodes_(num_nodes), t0_(std::chrono::steady_clock::now()) {
  assert(num_nodes > 0);
  for (int n = 0; n <= num_nodes_; ++n) {
    NodeExec& ex = execs_.emplace_back();
    ex.hook.t = this;
    ex.hook.self = n;
    ex.facade.set_realtime(true);
    ex.facade.install_hook(&ex.hook);
  }
}

ThreadsTransport::~ThreadsTransport() {
  stop_.store(true, std::memory_order_release);
  for (NodeExec& ex : execs_) {
    // The empty critical section pins the worker either inside wait()
    // or before its next stop_ check, so the notify cannot be lost.
    { std::lock_guard<std::mutex> g(ex.mu); }
    ex.cv.notify_all();
  }
  for (std::thread& t : workers_) t.join();
  // Undrained events (abnormal teardown only) are dropped with their
  // captures when the heaps and inboxes destruct.
}

sim::TimeNs ThreadsTransport::wall_now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

sim::Engine& ThreadsTransport::context_engine() {
  const int node = sim::current_node();
  if (node >= 0 && node <= num_nodes_) {
    return execs_[static_cast<std::size_t>(node)].facade;
  }
  return execs_[static_cast<std::size_t>(num_nodes_)].facade;
}

sim::Engine& ThreadsTransport::engine_for_node(int node) {
  assert(node >= 0 && node <= num_nodes_);
  return execs_[static_cast<std::size_t>(node)].facade;
}

std::uint64_t ThreadsTransport::events_executed() const {
  std::uint64_t total = 0;
  for (const NodeExec& ex : execs_) total += ex.executed;
  return total;
}

void ThreadsTransport::post_at(int node, sim::TimeNs due, sim::InlineFn fn) {
  if (node < 0 || node > num_nodes_) node = num_nodes_;
  NodeExec& ex = execs_[static_cast<std::size_t>(node)];
  if (tls_worker_exec == &ex) {
    // Posted from inside one of this worker's events, so the worker
    // holds its pending token already.
    push_timer(ex, due, std::move(fn));
    return;
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  bool wake = false;
  {
    std::lock_guard<std::mutex> g(ex.mu);
    ex.inbox.push_back(TimedEv{due, 0, std::move(fn)});
    // Only `mu` holders write the counter, so a plain increment will do.
    ex.posts.store(ex.posts.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    wake = ex.parked;
    ex.parked = false;
  }
  if (wake) ex.cv.notify_one();
}

void ThreadsTransport::push_timer(NodeExec& ex, sim::TimeNs due,
                                  sim::InlineFn fn) {
  ex.heap.push_back(TimedEv{due, ex.seq++, std::move(fn)});
  std::push_heap(ex.heap.begin(), ex.heap.end(), ev_later);
}

void ThreadsTransport::drain_inbox(NodeExec& ex) {
  // The batch changes hands by move assignment: the emptied vector from
  // the previous drain becomes the next inbox, so neither side
  // reallocates in steady state.
  std::vector<TimedEv> batch;
  {
    std::lock_guard<std::mutex> g(ex.mu);
    batch = std::move(ex.inbox);
    ex.inbox = std::move(ex.spare);
    ex.seen = ex.posts.load(std::memory_order_relaxed);
  }
  // The batch (at least one event: posts moved) trades its per-post
  // pending counts for the worker's token.
  const auto taken = static_cast<std::int64_t>(batch.size());
  pending_.fetch_sub(ex.busy ? taken : taken - 1, std::memory_order_acq_rel);
  ex.busy = true;
  for (TimedEv& ev : batch) push_timer(ex, ev.due, std::move(ev.fn));
  batch.clear();
  ex.spare = std::move(batch);
}

bool ThreadsTransport::poll_posts(const NodeExec& ex, sim::TimeNs until,
                                  bool yield) const {
  while (ex.posts.load(std::memory_order_relaxed) == ex.seen) {
    if (wall_now() >= until) return false;
    if (yield) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  return true;
}

void ThreadsTransport::park(NodeExec& ex, sim::TimeNs deadline) {
  std::unique_lock<std::mutex> lk(ex.mu);
  const auto woken = [&] {
    return !ex.inbox.empty() || stop_.load(std::memory_order_acquire);
  };
  ex.parked = true;
  if (deadline == kForever) {
    ex.cv.wait(lk, woken);
  } else {
    ex.cv.wait_until(lk, t0_ + std::chrono::nanoseconds(deadline), woken);
  }
  ex.parked = false;
}

void ThreadsTransport::run_next(NodeExec& ex, sim::TimeNs now) {
  std::pop_heap(ex.heap.begin(), ex.heap.end(), ev_later);
  // `now` is at or past the event's due time and never behind an
  // earlier reading, so the facade clock never runs backwards and
  // schedule_after arithmetic stays sane.
  ex.facade.set_now(now);
  ++ex.executed;
  {
    sim::InlineFn fn = std::move(ex.heap.back().fn);
    ex.heap.pop_back();
    fn();
  }  // captures die here, before the event counts as done
  if (!ex.heap.empty()) return;
  ex.busy = false;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> g(done_mu_);
    done_cv_.notify_all();
  }
}

void ThreadsTransport::worker_main(int node) {
  const sim::NodeScope scope(node);
  NodeExec& ex = execs_[static_cast<std::size_t>(node)];
  tls_worker_exec = &ex;
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  while (!stop_.load(std::memory_order_acquire)) {
    if (ex.posts.load(std::memory_order_relaxed) != ex.seen) {
      drain_inbox(ex);
    }
    if (ex.heap.empty()) {
      if (!spin_ || !poll_posts(ex, wall_now() + kSpinNs, true)) {
        park(ex, kForever);
      }
      continue;
    }
    const sim::TimeNs due = ex.heap.front().due;
    const sim::TimeNs now = wall_now();
    if (due > now) {
      if (spin_ && due - now <= kSpinNs) {
        poll_posts(ex, due, false);
      } else {
        park(ex, due);
      }
      continue;
    }
    run_next(ex, now);
  }
}

void ThreadsTransport::start_workers() {
  if (started_) return;
  started_ = true;
  // Spinning pays only while every worker has a core of its own: with
  // more workers than cores a spinner burns the slice of the worker it
  // waits for. Asked here, not in the constructor, so building a
  // runtime stays free of the affinity syscall.
  spin_ = num_nodes_ + 1 <= host_cores();
  workers_.reserve(static_cast<std::size_t>(num_nodes_) + 1);
  for (int n = 0; n <= num_nodes_; ++n) {
    workers_.emplace_back([this, n] { worker_main(n); });
  }
}

void ThreadsTransport::drive_until(sim::TimeNs /*deadline*/) {
  start_workers();
  std::unique_lock<std::mutex> lk(done_mu_);
  done_cv_.wait(lk, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace vtopo::armci
