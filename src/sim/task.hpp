// Coroutine actor layer on top of the event engine.
//
// Simulated processes are written as straight-line C++20 coroutines:
//
//   sim::Co<void> worker(Ctx& ctx) {
//     co_await ctx.sleep(us(5));
//     int v = co_await ctx.fetch_add(...);
//   }
//
// `Co<T>` is a lazily-started coroutine that resumes its awaiter by
// symmetric transfer when it finishes; `spawn()` detaches a root Co<void>
// onto the engine. Suspension points never resume recursively through
// arbitrary caller stacks: completion sources (Future, Sleep) schedule
// resumption as engine events.
#pragma once

#include <atomic>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/time.hpp"

namespace vtopo::sim {

template <class T>
class Co;

namespace detail {

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  template <class Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    std::coroutine_handle<> cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  // A simulated actor has no one to rethrow to; failing fast keeps the
  // deterministic run debuggable.
  [[noreturn]] void unhandled_exception() { std::terminate(); }

  // Coroutine frames come from the size-class freelists: per-op
  // coroutines (issue_send, roundtrip, CHT service loops) stop touching
  // the allocator once the pool reaches its high-water mark.
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p) noexcept { FramePool::deallocate(p); }
};

}  // namespace detail

/// Lazily-started awaitable coroutine returning T.
template <class T>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Co() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;  // start the child coroutine
  }
  T await_resume() {
    assert(handle_.promise().value.has_value());
    return std::move(*handle_.promise().value);
  }

 private:
  friend struct promise_type;
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_{};
};

/// Co<void> specialization.
template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Co() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {}

 private:
  friend struct promise_type;
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_{};
};

namespace detail {

/// Self-destroying root coroutine used by spawn().
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }
    static void* operator new(std::size_t n) {
      return FramePool::allocate(n);
    }
    static void operator delete(void* p) noexcept {
      FramePool::deallocate(p);
    }
  };
};

inline Detached drive(Co<void> co, std::int64_t* live_counter) {
  co_await std::move(co);
  if (live_counter != nullptr) --*live_counter;
}

}  // namespace detail

/// Detach a root coroutine onto the engine. The coroutine starts running
/// immediately (up to its first suspension point). If `live_counter` is
/// given it is incremented now and decremented when the task finishes,
/// letting callers assert that a run left no task stranded.
inline void spawn(Co<void> co, std::int64_t* live_counter = nullptr) {
  if (live_counter != nullptr) ++*live_counter;
  detail::drive(std::move(co), live_counter);
}

/// Awaitable relative delay.
class Sleep {
 public:
  Sleep(Engine& eng, TimeNs delay) : eng_(&eng), delay_(delay) {}
  bool await_ready() const noexcept { return delay_ <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    eng_->schedule_after(delay_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Engine* eng_;
  TimeNs delay_;
};

inline Sleep sleep_for(Engine& eng, TimeNs delay) { return Sleep(eng, delay); }

/// One-shot future: a value produced by one party and awaited by at most
/// one coroutine. Copies share state (promise/future in one handle).
template <class T>
class Future {
 public:
  explicit Future(Engine& eng)
      : st_(std::allocate_shared<State>(RecycleAlloc<State>{}, &eng)) {}

  /// Fulfil the future. Resumes the waiter (if any) via the event queue at
  /// the current simulated time. Must be called exactly once. The resume
  /// lands on the node that created the future (its owner), so under the
  /// sharded engine a completion observed on another shard routes home
  /// instead of resuming the waiter on the wrong shard.
  ///
  /// Under a realtime (threads-backend) engine the set/await race is real:
  /// set() may run on a different std::thread than the awaiter. The state
  /// then switches to a spinlock-guarded protocol, and the resume is
  /// posted at time 0 — "as soon as possible" in wall-clock terms — to the
  /// awaiting node's queue, never reading the foreign facade's clock.
  void set(T v) {
    if (st_->realtime) {
      auto st = st_;
      st->lock();
      assert(!st->value.has_value() && "future set twice");
      st->value.emplace(std::move(v));
      auto h = std::exchange(st->waiter, nullptr);
      const int dest = st->waiter_node >= 0 ? st->waiter_node : st->owner_node;
      st->unlock();
      if (h) {
        st->eng->schedule_on_node(dest, 0, [h] { h.resume(); });
      }
      return;
    }
    assert(!st_->value.has_value() && "future set twice");
    st_->value.emplace(std::move(v));
    if (st_->waiter) {
      auto st = st_;
      st_->eng->schedule_on_node(st->owner_node, st->eng->now(), [st] {
        auto h = std::exchange(st->waiter, nullptr);
        h.resume();
      });
    }
  }

  [[nodiscard]] bool ready() const {
    if (st_->realtime) {
      st_->lock();
      const bool r = st_->value.has_value();
      st_->unlock();
      return r;
    }
    return st_->value.has_value();
  }

  /// Peek at the value (valid only when ready(); value must not have been
  /// consumed by a co_await).
  [[nodiscard]] const T& peek() const { return *st_->value; }

  auto operator co_await() {
    struct Awaiter {
      std::shared_ptr<State> st;
      bool await_ready() const {
        // Realtime states route through await_suspend so the value check
        // and waiter registration happen under one lock acquisition.
        if (st->realtime) return false;
        return st->value.has_value();
      }
      bool await_suspend(std::coroutine_handle<> h) {
        if (st->realtime) {
          st->lock();
          if (st->value.has_value()) {
            st->unlock();
            return false;  // value raced in: resume immediately
          }
          assert(!st->waiter && "future awaited by two coroutines");
          st->waiter = h;
          st->waiter_node = current_node();
          st->unlock();
          return true;
        }
        assert(!st->waiter && "future awaited by two coroutines");
        st->waiter = h;
        return true;
      }
      T await_resume() { return std::move(*st->value); }
    };
    return Awaiter{st_};
  }

 private:
  struct State {
    explicit State(Engine* e)
        : eng(e), owner_node(current_node()), realtime(e->realtime()) {}
    void lock() const {
      while (lk.test_and_set(std::memory_order_acquire)) {
      }
    }
    void unlock() const { lk.clear(std::memory_order_release); }
    Engine* eng;
    int owner_node;  ///< -1 in legacy runs: schedule_on_node == schedule_at
    bool realtime;   ///< engine is a wall-clock facade: use the lock
    int waiter_node = -1;  ///< node awaiting; resume routes there
    std::optional<T> value;
    std::coroutine_handle<> waiter;
    mutable std::atomic_flag lk = ATOMIC_FLAG_INIT;
  };
  std::shared_ptr<State> st_;
};

}  // namespace vtopo::sim
