// Per-function sharding for analysis kernels (the ROADMAP's "one tool
// saturates all cores" item). A FunctionSharder partitions an ordered
// function list — canonically CallGraph::DefinedFuncs(), which is in
// declaration order — into contiguous shards and drives per-function kernels
// over a WorkQueue. A one-shard sharder needs no queue: its only chunk runs
// on the calling thread, so the passes' default (shards == 1) spawns no
// threads at all.
//
// Determinism contract (what makes sharded output bit-identical to serial):
//   1. Shards are contiguous index ranges of the declaration order, so shard
//      0 holds the first functions, shard 1 the next, and so on.
//   2. Kernels write only into their own shard's slot (ParallelChunks hands
//      each chunk its index); no kernel reads another shard's output.
//   3. Reductions happen after the Wait() barrier, in shard-index order —
//      i.e. function-declaration order — never in completion order.
//   4. Fixpoints are run as Jacobi rounds: every round reads the state frozen
//      at the last barrier and publishes additions at the next one (each
//      ParallelChunks/MapChunks call is one such global convergence
//      barrier). Monotone kernels converge to the same least fixpoint as
//      the serial Gauss-Seidel loop.
// A kernel that follows 1-4 produces the same bytes under shards=1,
// shards=8, and the serial reference implementation (BlockStop::Run() and
// friends, kept only as the oracle shard_determinism_test compares against).
#ifndef SRC_TOOL_FUNCTION_SHARDER_H_
#define SRC_TOOL_FUNCTION_SHARDER_H_

#include <cstddef>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/mc/ast.h"
#include "src/support/work_queue.h"

namespace ivy {

class FunctionSharder {
 public:
  // `shards` == 0 means hardware concurrency; values are clamped to at least
  // 1 and at most one shard per function (empty shards are never created).
  FunctionSharder(std::vector<const FuncDecl*> funcs, int shards = 0);

  int shard_count() const { return shard_count_; }
  // Pool size matching the help-first execution model: the caller runs
  // chunk 0 itself, so k shards need only k-1 workers (min 1). Use this for
  // the WorkQueue a kernel will drive through ParallelChunks/MapChunks when
  // shard_count() > 1; a one-shard kernel takes no queue at all.
  int worker_count() const { return shard_count_ > 1 ? shard_count_ - 1 : 1; }
  size_t size() const { return funcs_.size(); }
  const std::vector<const FuncDecl*>& functions() const { return funcs_; }
  const FuncDecl* At(size_t i) const { return funcs_[i]; }

  // Declaration index of `fn`, or size() if it is not a sharded function.
  size_t IndexOf(const FuncDecl* fn) const;

  // Splits [0, n_items) into at most shard_count() contiguous ranges of
  // near-equal size (deterministic: depends only on n_items and the shard
  // count). Used for function ranges and for frontier worklists alike.
  std::vector<std::pair<size_t, size_t>> Partition(size_t n_items) const;

  // Runs kernel(chunk_index, begin, end) for every chunk of [0, n_items) on
  // `wq` and waits for all of them (the barrier). Kernel exceptions
  // propagate out of the barrier, lowest chunk index first. `wq` may be null
  // when shard_count() == 1 (the only chunk runs on the calling thread); a
  // null queue with more shards runs every chunk there, in chunk order.
  void ParallelChunks(WorkQueue* wq, size_t n_items,
                      const std::function<void(int, size_t, size_t)>& kernel) const;

  // ParallelChunks with a deterministic reduction: each chunk produces a
  // vector<R>; the per-chunk vectors are returned in chunk order, so
  // flattening them reproduces the order a serial loop over [0, n_items)
  // would have produced.
  //
  // Help-first execution: the caller runs chunk 0 itself and only chunks
  // 1..k-1 go through the queue. A single-chunk round (shards == 1, or a
  // frontier smaller than the shard count) therefore costs zero scheduler
  // handshakes — fixpoints with many tiny rounds stay cheap.
  template <typename R>
  std::vector<std::vector<R>> MapChunks(
      WorkQueue* wq, size_t n_items,
      const std::function<std::vector<R>(int, size_t, size_t)>& kernel) const {
    std::vector<std::pair<size_t, size_t>> ranges = Partition(n_items);
    std::vector<std::vector<R>> out(ranges.size());
    RunChunks(wq, ranges, [&out, &kernel](int c, size_t begin, size_t end) {
      out[static_cast<size_t>(c)] = kernel(c, begin, end);
    });
    return out;
  }

 private:
  // Shared help-first driver: chunks 1..k-1 on the queue, chunk 0 on the
  // calling thread, then the barrier. If both the inline chunk and a queued
  // chunk throw, chunk 0's exception wins (lowest index — the same "what a
  // serial loop would have hit first" rule WorkQueue::Wait applies).
  void RunChunks(WorkQueue* wq, const std::vector<std::pair<size_t, size_t>>& ranges,
                 const std::function<void(int, size_t, size_t)>& kernel) const;

  std::vector<const FuncDecl*> funcs_;
  std::map<const FuncDecl*, size_t> index_;
  int shard_count_ = 1;
};

}  // namespace ivy

#endif  // SRC_TOOL_FUNCTION_SHARDER_H_
