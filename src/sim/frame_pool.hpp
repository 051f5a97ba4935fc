// Size-class freelists for coroutine frames and other per-op heap blocks.
//
// Every simulated ARMCI operation used to cost several allocator round
// trips: one coroutine frame per issue_send/roundtrip, one shared Future
// state, one Request. The engine's slot pool (PR 1) showed
// the pattern: grow to the high-water mark once, then recycle. FramePool
// generalizes it to variable-size blocks via power-of-two size classes.
//
// Layout: every block carries a 16-byte header holding its size-class
// index, so deallocation needs no size from the caller and default
// (16-byte) alignment is preserved for the payload. Freed blocks park on
// a thread-local freelist per class; blocks above the largest class fall
// through to plain operator new/delete. Thread-local state means sweep
// workers (bench/sweep.hpp) recycle independently with no locking, and
// the engine's single-threaded determinism is untouched — pooling only
// changes *where* a frame lives, never the order anything runs.
//
// The freelists are reachable from a thread-local object whose
// destructor frees every parked block, so LeakSanitizer sees a clean
// exit; a live (non-recycled) frame at exit still reports as a leak,
// which is exactly the bug it would be.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace vtopo::sim {

class FramePool {
 public:
  /// Smallest pooled block (header included): 2^kMinShift bytes.
  static constexpr std::size_t kMinShift = 6;    // 64 B
  /// Largest pooled block: 2^kMaxShift bytes; bigger goes to the heap.
  static constexpr std::size_t kMaxShift = 17;   // 128 KB
  static constexpr std::size_t kClasses = kMaxShift - kMinShift + 1;
  static constexpr std::size_t kHeader = 16;
  static constexpr std::uint64_t kUnpooled = ~std::uint64_t{0};

  static void* allocate(std::size_t bytes) {
    const std::size_t total = bytes + kHeader;
    if (total > (std::size_t{1} << kMaxShift)) {
      auto* base = static_cast<std::uint64_t*>(::operator new(total));
      *base = kUnpooled;
      return reinterpret_cast<char*>(base) + kHeader;
    }
    const std::size_t cls = class_of(total);
    Lists& tl = lists();
    auto& list = tl.free[cls];
    std::uint64_t* base;
    if (!list.empty()) {
      base = static_cast<std::uint64_t*>(list.back());
      list.pop_back();
      ++tl.reused;
    } else {
      base = static_cast<std::uint64_t*>(
          ::operator new(std::size_t{1} << (cls + kMinShift)));
      ++tl.created;
    }
    *base = cls;
    return reinterpret_cast<char*>(base) + kHeader;
  }

  static void deallocate(void* p) noexcept {
    auto* base =
        reinterpret_cast<std::uint64_t*>(static_cast<char*>(p) - kHeader);
    const std::uint64_t cls = *base;
    if (cls == kUnpooled) {
      ::operator delete(base);
      return;
    }
    lists().free[cls].push_back(base);
  }

  /// Blocks handed out from a freelist / freshly heap-allocated on this
  /// thread (test + bench observability).
  [[nodiscard]] static std::uint64_t reused() { return lists().reused; }
  [[nodiscard]] static std::uint64_t created() { return lists().created; }

  /// Blocks currently parked on this thread's freelists.
  [[nodiscard]] static std::uint64_t parked() {
    const Lists& tl = lists();
    std::uint64_t n = 0;
    for (const auto& list : tl.free) {
      n += static_cast<std::uint64_t>(list.size());
    }
    return n;
  }
  /// Pooled blocks handed out on this thread and not yet returned
  /// (coroutine frames still alive). Zero once every frame completed;
  /// trim() does not change it (trim only frees *parked* blocks).
  [[nodiscard]] static std::uint64_t live() {
    return lists().created - parked();
  }

  /// Release every parked block back to the heap (tests that want to
  /// measure from a cold pool).
  static void trim() {
    Lists& tl = lists();
    for (auto& list : tl.free) {
      for (void* base : list) ::operator delete(base);
      list.clear();
    }
  }

 private:
  struct Lists {
    std::vector<void*> free[kClasses];
    std::uint64_t reused = 0;
    std::uint64_t created = 0;
    ~Lists() {
      for (auto& list : free) {
        for (void* base : list) ::operator delete(base);
      }
    }
  };

  static Lists& lists() {
    thread_local Lists tl;
    return tl;
  }

  /// Index of the smallest class with 2^(cls+kMinShift) >= total.
  static std::size_t class_of(std::size_t total) {
    std::size_t cls = 0;
    while ((std::size_t{1} << (cls + kMinShift)) < total) ++cls;
    return cls;
  }
};

/// STL allocator over FramePool, for shared state that is created and
/// torn down once per simulated operation (e.g. Future's control block
/// via std::allocate_shared).
template <class T>
struct RecycleAlloc {
  using value_type = T;

  RecycleAlloc() noexcept = default;
  template <class U>
  RecycleAlloc(const RecycleAlloc<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(FramePool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { FramePool::deallocate(p); }

  template <class U>
  friend bool operator==(const RecycleAlloc&, const RecycleAlloc<U>&) {
    return true;
  }
};

}  // namespace vtopo::sim
