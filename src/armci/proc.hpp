// Application-process API: the public one-sided operation surface.
//
// Mirrors the ARMCI operation families:
//   - contiguous ARMCI_Put/ARMCI_Get  -> put()/get(): fully one-sided on
//     the NIC, never touch a CHT or a request buffer;
//   - ARMCI_AccV/ARMCI_PutV/ARMCI_GetV, strided variants, ARMCI_Rmw,
//     ARMCI_Lock/Unlock -> CHT-mediated requests that travel the virtual
//     topology and consume request buffers at every hop.
//
// All operations are awaitable coroutines completing at the simulated
// instant the real operation would. Payloads are real bytes: data lands
// in GlobalMemory when the simulated operation executes, so value
// semantics (atomicity, lock mutual exclusion) are testable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "armci/memory.hpp"
#include "armci/request.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace vtopo::armci {

class Runtime;

/// One local->remote segment of a vectored put.
struct PutSeg {
  std::span<const std::uint8_t> src;
  std::int64_t target_offset = 0;
};

/// One remote->local segment of a vectored get.
struct GetSeg {
  std::span<std::uint8_t> dst;
  std::int64_t source_offset = 0;
};

class Proc {
 public:
  Proc(Runtime& rt, ProcId id);
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  [[nodiscard]] ProcId id() const { return id_; }
  [[nodiscard]] core::NodeId node() const { return node_; }
  [[nodiscard]] Runtime& runtime() { return *rt_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  /// True for the lowest-ranked process on its node.
  [[nodiscard]] bool is_master() const;

  // --- Contiguous one-sided transfers (direct, no CHT) ---------------
  [[nodiscard]] sim::Co<void> put(GAddr dst,
                                  std::span<const std::uint8_t> src);
  [[nodiscard]] sim::Co<void> get(std::span<std::uint8_t> dst, GAddr src);

  // --- CHT-mediated operations (travel the virtual topology) ---------
  /// dst[i] += scale * src[i] executed atomically at the target CHT
  /// (ARMCI_Acc with ARMCI_ACC_DBL).
  [[nodiscard]] sim::Co<void> acc_f64(GAddr dst,
                                      std::span<const double> src,
                                      double scale = 1.0);
  /// Vectored (noncontiguous) put/get; requests are split so each fits
  /// one request buffer, then pipelined.
  [[nodiscard]] sim::Co<void> put_v(ProcId target,
                                    std::span<const PutSeg> segs);
  [[nodiscard]] sim::Co<void> get_v(ProcId target,
                                    std::span<const GetSeg> segs);
  /// 2-D strided transfers, expressed over the vectored path.
  [[nodiscard]] sim::Co<void> put_strided(GAddr dst,
                                          std::int64_t dst_stride,
                                          const std::uint8_t* src,
                                          std::int64_t src_stride,
                                          std::int64_t block_bytes,
                                          std::int64_t count);
  [[nodiscard]] sim::Co<void> get_strided(std::uint8_t* dst,
                                          std::int64_t dst_stride,
                                          GAddr src,
                                          std::int64_t src_stride,
                                          std::int64_t block_bytes,
                                          std::int64_t count);

  /// N-level strided transfers (ARMCI_PutS/GetS/AccS with up to 7
  /// stride levels). `counts[0]` is the contiguous byte count;
  /// `counts[i]` (i >= 1) the repetition count at level i, with strides
  /// `dst_strides[i-1]` / `src_strides[i-1]` (sizes == counts.size()-1).
  [[nodiscard]] sim::Co<void> put_strided_n(
      GAddr dst, std::span<const std::int64_t> dst_strides,
      const std::uint8_t* src, std::span<const std::int64_t> src_strides,
      std::span<const std::int64_t> counts);
  [[nodiscard]] sim::Co<void> get_strided_n(
      std::uint8_t* dst, std::span<const std::int64_t> dst_strides,
      GAddr src, std::span<const std::int64_t> src_strides,
      std::span<const std::int64_t> counts);
  /// Strided double accumulate (ARMCI_AccS, ARMCI_ACC_DBL).
  [[nodiscard]] sim::Co<void> acc_strided_f64(
      GAddr dst, std::span<const std::int64_t> dst_strides,
      const double* src, std::span<const std::int64_t> src_strides,
      std::span<const std::int64_t> counts, double scale = 1.0);
  /// Atomic read-modify-write (ARMCI_Rmw).
  [[nodiscard]] sim::Co<std::int64_t> fetch_add(GAddr counter,
                                                std::int64_t delta);
  [[nodiscard]] sim::Co<std::int64_t> swap(GAddr cell, std::int64_t value);
  /// Remote mutexes (ARMCI_Lock/ARMCI_Unlock): mutex `mutex_id` hosted
  /// by process `owner`.
  [[nodiscard]] sim::Co<void> lock(ProcId owner, std::int32_t mutex_id);
  [[nodiscard]] sim::Co<void> unlock(ProcId owner, std::int32_t mutex_id);

  // --- Synchronization & local work ------------------------------------
  [[nodiscard]] sim::Co<void> barrier();

  /// Model `d` of local computation.
  [[nodiscard]] sim::Co<void> compute(sim::TimeNs d);
  /// Memory fence: all issued operations here complete on return of the
  /// blocking calls, so fence only models its own small cost.
  [[nodiscard]] sim::Co<void> fence();

 private:
  friend class Runtime;

  /// Build an op skeleton addressed at `target`.
  [[nodiscard]] RequestPtr make_request(OpCode op, ProcId target);
  /// Attach a completion future to `r` and return it.
  sim::Future<Response> make_future(const RequestPtr& r);
  /// Origin-side issue: op overhead, first-hop credit, wire transfer.
  [[nodiscard]] sim::Co<void> issue_send(RequestPtr r);
  /// issue_send + await response.
  [[nodiscard]] sim::Co<Response> roundtrip(RequestPtr r);
  /// Issue the buffer-sized requests of a vectored put or accumulate
  /// pipelined, then await every completion.
  [[nodiscard]] sim::Co<void> vector_op(OpCode op, ProcId target,
                                        std::vector<RequestPtr> reqs);
  std::vector<RequestPtr> chunk_put(ProcId target, OpCode op,
                                    std::span<const PutSeg> segs,
                                    double scale);
  std::vector<RequestPtr> chunk_get(ProcId target,
                                    std::span<const GetSeg> segs);

  Runtime* rt_;
  ProcId id_;
  core::NodeId node_;
  sim::Rng rng_;
};

}  // namespace vtopo::armci
