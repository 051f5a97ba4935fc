#include "armci/memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace vtopo::armci {

GlobalMemory::GlobalMemory(std::int64_t num_procs,
                           std::int64_t segment_bytes)
    : segment_bytes_(segment_bytes) {
  if (num_procs <= 0 || segment_bytes <= 0) {
    throw std::invalid_argument("GlobalMemory: non-positive size");
  }
  segments_.resize(static_cast<std::size_t>(num_procs));
}

namespace {
/// Physical growth granularity of lazily materialized segments.
constexpr std::int64_t kSegmentGrowth = 4096;
}  // namespace

std::vector<std::uint8_t>& GlobalMemory::ensure(ProcId proc) {
  auto& seg = segments_[static_cast<std::size_t>(proc)];
  // Size to the collective allocation watermark, not the full logical
  // segment: thousands of simulated processes at the default logical
  // size would otherwise exhaust host memory.
  const std::int64_t want =
      std::min(segment_bytes_,
               (next_offset_ + kSegmentGrowth - 1) / kSegmentGrowth *
                   kSegmentGrowth);
  if (static_cast<std::int64_t>(seg.size()) < want) {
    seg.resize(static_cast<std::size_t>(want), 0);
  }
  return seg;
}

const std::vector<std::uint8_t>& GlobalMemory::ensure(ProcId proc) const {
  return const_cast<GlobalMemory*>(this)->ensure(proc);
}

std::int64_t GlobalMemory::alloc_all(std::int64_t bytes) {
  const std::int64_t aligned = (bytes + 7) & ~std::int64_t{7};
  if (next_offset_ + aligned > segment_bytes_) {
    throw std::runtime_error("GlobalMemory: segment exhausted");
  }
  const std::int64_t off = next_offset_;
  next_offset_ += aligned;
  return off;
}

void GlobalMemory::check(GAddr a, std::int64_t bytes) const {
  assert(a.proc >= 0 &&
         a.proc < static_cast<ProcId>(segments_.size()));
  assert(a.offset >= 0 && a.offset + bytes <= segment_bytes_);
  (void)bytes;
}

void GlobalMemory::write(GAddr dst, std::span<const std::uint8_t> src) {
  check(dst, static_cast<std::int64_t>(src.size()));
  std::memcpy(ensure(dst.proc).data() + dst.offset, src.data(),
              src.size());
}

void GlobalMemory::read(std::span<std::uint8_t> dst, GAddr src) const {
  check(src, static_cast<std::int64_t>(dst.size()));
  std::memcpy(dst.data(), ensure(src.proc).data() + src.offset,
              dst.size());
}

void GlobalMemory::accumulate_f64(GAddr dst, std::span<const double> src,
                                  double scale) {
  check(dst, static_cast<std::int64_t>(src.size() * sizeof(double)));
  auto* base = ensure(dst.proc).data() + dst.offset;
  for (std::size_t i = 0; i < src.size(); ++i) {
    double cur;
    std::memcpy(&cur, base + i * sizeof(double), sizeof(double));
    cur += scale * src[i];
    std::memcpy(base + i * sizeof(double), &cur, sizeof(double));
  }
}

std::int64_t GlobalMemory::fetch_add_i64(GAddr addr, std::int64_t delta) {
  const std::int64_t old = read_i64(addr);
  write_i64(addr, old + delta);
  return old;
}

std::int64_t GlobalMemory::swap_i64(GAddr addr, std::int64_t value) {
  const std::int64_t old = read_i64(addr);
  write_i64(addr, value);
  return old;
}

std::int64_t GlobalMemory::read_i64(GAddr addr) const {
  check(addr, 8);
  std::int64_t v;
  std::memcpy(&v, ensure(addr.proc).data() + addr.offset, sizeof(v));
  return v;
}

void GlobalMemory::write_i64(GAddr addr, std::int64_t value) {
  check(addr, 8);
  std::memcpy(ensure(addr.proc).data() + addr.offset, &value,
              sizeof(value));
}

double GlobalMemory::read_f64(GAddr addr) const {
  check(addr, 8);
  double v;
  std::memcpy(&v, ensure(addr.proc).data() + addr.offset, sizeof(v));
  return v;
}

void GlobalMemory::write_f64(GAddr addr, double value) {
  check(addr, 8);
  std::memcpy(ensure(addr.proc).data() + addr.offset, &value,
              sizeof(value));
}

std::span<std::uint8_t> GlobalMemory::segment(ProcId proc) {
  return ensure(proc);
}

}  // namespace vtopo::armci
