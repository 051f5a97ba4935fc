#include "workloads/trace_replay.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "armci/proc.hpp"
#include "sim/time.hpp"

namespace vtopo::work {

namespace {

using armci::GAddr;
using armci::GetSeg;
using armci::Proc;
using armci::PutSeg;

TraceOp::Kind parse_kind(const std::string& word, int line) {
  if (word == "put") return TraceOp::Kind::kPut;
  if (word == "get") return TraceOp::Kind::kGet;
  if (word == "putv") return TraceOp::Kind::kPutV;
  if (word == "getv") return TraceOp::Kind::kGetV;
  if (word == "acc") return TraceOp::Kind::kAcc;
  if (word == "fetchadd") return TraceOp::Kind::kFetchAdd;
  if (word == "lock") return TraceOp::Kind::kLock;
  if (word == "unlock") return TraceOp::Kind::kUnlock;
  if (word == "compute") return TraceOp::Kind::kCompute;
  if (word == "barrier") return TraceOp::Kind::kBarrier;
  throw std::invalid_argument("trace line " + std::to_string(line) +
                              ": unknown op '" + word + "'");
}

bool needs_target(TraceOp::Kind k) {
  return k != TraceOp::Kind::kCompute && k != TraceOp::Kind::kBarrier;
}

}  // namespace

std::vector<TraceOp> parse_trace(const std::string& text,
                                 std::int64_t num_procs) {
  std::vector<TraceOp> ops;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::int64_t proc;
    if (!(ls >> proc)) continue;  // blank / comment-only line
    std::string word;
    if (!(ls >> word)) {
      throw std::invalid_argument("trace line " + std::to_string(lineno) +
                                  ": missing op");
    }
    TraceOp op;
    op.kind = parse_kind(word, lineno);
    if (proc < 0 || proc >= num_procs) {
      throw std::invalid_argument("trace line " + std::to_string(lineno) +
                                  ": proc out of range");
    }
    op.proc = static_cast<armci::ProcId>(proc);
    if (needs_target(op.kind)) {
      std::int64_t target;
      if (!(ls >> target) || target < 0 || target >= num_procs) {
        throw std::invalid_argument("trace line " +
                                    std::to_string(lineno) +
                                    ": bad target");
      }
      op.target = static_cast<armci::ProcId>(target);
    }
    if (op.kind != TraceOp::Kind::kBarrier) {
      if (!(ls >> op.arg) || op.arg < 0) {
        throw std::invalid_argument("trace line " +
                                    std::to_string(lineno) +
                                    ": bad argument");
      }
    }
    ops.push_back(op);
  }
  return ops;
}

namespace {

struct Shared {
  std::vector<std::vector<TraceOp>> per_proc;
  std::int64_t region_off = 0;
  std::int64_t region_bytes = 0;
};

sim::Co<void> replay_body(Proc& p, std::shared_ptr<Shared> st) {
  std::vector<std::uint8_t> buf;
  std::vector<double> dbuf;
  for (const TraceOp& op :
       st->per_proc[static_cast<std::size_t>(p.id())]) {
    switch (op.kind) {
      case TraceOp::Kind::kPut:
        buf.assign(static_cast<std::size_t>(op.arg), 1);
        co_await p.put(GAddr{op.target, st->region_off}, buf);
        break;
      case TraceOp::Kind::kGet:
        buf.resize(static_cast<std::size_t>(op.arg));
        co_await p.get(buf, GAddr{op.target, st->region_off});
        break;
      case TraceOp::Kind::kPutV: {
        buf.assign(static_cast<std::size_t>(op.arg), 2);
        const PutSeg seg{buf, st->region_off};
        co_await p.put_v(op.target, {&seg, 1});
        break;
      }
      case TraceOp::Kind::kGetV: {
        buf.resize(static_cast<std::size_t>(op.arg));
        const GetSeg seg{buf, st->region_off};
        co_await p.get_v(op.target, {&seg, 1});
        break;
      }
      case TraceOp::Kind::kAcc:
        dbuf.assign(static_cast<std::size_t>(op.arg), 1.0);
        co_await p.acc_f64(GAddr{op.target, st->region_off}, dbuf, 1.0);
        break;
      case TraceOp::Kind::kFetchAdd:
        co_await p.fetch_add(
            GAddr{op.target, st->region_off + st->region_bytes - 8},
            op.arg);
        break;
      case TraceOp::Kind::kLock:
        co_await p.lock(op.target,
                        static_cast<std::int32_t>(op.arg));
        break;
      case TraceOp::Kind::kUnlock:
        co_await p.unlock(op.target,
                          static_cast<std::int32_t>(op.arg));
        break;
      case TraceOp::Kind::kCompute:
        co_await p.compute(sim::us(static_cast<double>(op.arg)));
        break;
      case TraceOp::Kind::kBarrier:
        co_await p.barrier();
        break;
    }
  }
}

}  // namespace

TraceResult replay_trace(const ClusterConfig& cluster,
                         const std::vector<TraceOp>& ops) {
  // Every process must hit the same number of barriers or the run
  // deadlocks (barriers are full-membership); validate up front.
  std::vector<std::int64_t> barriers(
      static_cast<std::size_t>(cluster.num_procs()), 0);
  for (const TraceOp& op : ops) {
    if (op.kind == TraceOp::Kind::kBarrier) {
      barriers[static_cast<std::size_t>(op.proc)]++;
    }
  }
  for (const auto b : barriers) {
    if (b != barriers[0]) {
      throw std::invalid_argument(
          "trace: unequal barrier counts across processes");
    }
  }

  ClusterHandle handle(cluster);
  armci::Runtime& rt = handle.rt();
  arm_reconfigure(rt, cluster);
  auto st = std::make_shared<Shared>();
  st->per_proc.resize(static_cast<std::size_t>(rt.num_procs()));
  std::int64_t max_bytes = 4096;
  for (const TraceOp& op : ops) {
    st->per_proc[static_cast<std::size_t>(op.proc)].push_back(op);
    if (op.kind != TraceOp::Kind::kCompute &&
        op.kind != TraceOp::Kind::kBarrier) {
      max_bytes = std::max(max_bytes, op.arg * 8 + 64);
    }
  }
  st->region_bytes = max_bytes;
  st->region_off = rt.memory().alloc_all(max_bytes);

  rt.spawn_all([st](Proc& p) { return replay_body(p, st); });
  rt.run_all();

  TraceResult out;
  out.exec_time_sec = handle.elapsed_sec();
  out.stats = rt.stats();
  out.ops_executed = static_cast<std::int64_t>(ops.size());
  return out;
}

}  // namespace vtopo::work
