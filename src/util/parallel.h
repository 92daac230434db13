#ifndef RECEIPT_UTIL_PARALLEL_H_
#define RECEIPT_UTIL_PARALLEL_H_

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace receipt {

/// Returns the number of OpenMP threads the next parallel region will use.
inline int MaxThreads() { return omp_get_max_threads(); }

/// Returns the calling thread's id inside a parallel region (0 outside).
inline int ThreadId() { return omp_get_thread_num(); }

/// Runs `fn(i)` for i in [0, n) across `num_threads` OpenMP threads with
/// dynamic scheduling (the workloads in this library are highly skewed, e.g.
/// wedge exploration per vertex, so static chunking load-balances poorly).
template <typename Fn>
void ParallelFor(size_t n, int num_threads, Fn&& fn) {
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, 64) num_threads(num_threads)
  for (size_t i = 0; i < n; ++i) {
    fn(i);
  }
}

/// Dynamic-schedule chunk for a loop of `n` skewed items over `num_threads`
/// threads: n / (64·threads), clamped to [1, 64]. Large loops (counting,
/// big wing rounds) keep the 64-item chunk that amortizes the scheduler;
/// a loop smaller than 64·threads — most RECEIPT CD and ParB peel rounds —
/// is handed out in chunks small enough that every thread gets work, since
/// one chunk of 64 would put the whole round on a single thread.
inline size_t DynamicChunk(size_t n, int num_threads) {
  const size_t per_thread = n / (64 * static_cast<size_t>(num_threads));
  return std::clamp<size_t>(per_thread, 1, 64);
}

/// ParallelFor with a per-thread context object: `fn(ctx[tid], i)`, then
/// `finish(ctx[tid])` once on every thread of the team after that thread's
/// last iteration (`omp for nowait`, so a thread finishes without waiting
/// for the others; the region's closing barrier orders all finishes before
/// the call returns). Used to hand each thread its own wedge-aggregation
/// scratch array (Alg. 1 line 5) and to let it publish what it aggregated.
/// The dynamic chunk follows the loop size (DynamicChunk), so small peel
/// rounds spread across all threads.
template <typename Ctx, typename Fn, typename Finish>
void ParallelForWithContext(size_t n, int num_threads, std::vector<Ctx>& ctxs,
                            Fn&& fn, Finish&& finish) {
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(ctxs[0], i);
    finish(ctxs[0]);
    return;
  }
  const size_t chunk = DynamicChunk(n, num_threads);
#pragma omp parallel num_threads(num_threads)
  {
    Ctx& ctx = ctxs[omp_get_thread_num()];
#pragma omp for schedule(dynamic, chunk) nowait
    for (size_t i = 0; i < n; ++i) {
      fn(ctx, i);
    }
    finish(ctx);
  }
}

/// ParallelForWithContext without a per-thread epilogue.
template <typename Ctx, typename Fn>
void ParallelForWithContext(size_t n, int num_threads, std::vector<Ctx>& ctxs,
                            Fn&& fn) {
  ParallelForWithContext(n, num_threads, ctxs, std::forward<Fn>(fn),
                         [](Ctx&) {});
}

/// Atomically adds `delta` to `*target` (relaxed ordering; all support
/// counters in this library are reduced/validated after a barrier).
template <typename T>
inline void AtomicAdd(T* target, T delta) {
  reinterpret_cast<std::atomic<T>*>(target)->fetch_add(
      delta, std::memory_order_relaxed);
}

/// Atomically performs `*target = max(floor, *target - delta)` and returns the
/// new value. This is the clamped support-decrement of Alg. 2 line 13 /
/// Lemma 2: concurrent decrements from different peeled vertices must not be
/// lost, and support never drops below the floor (current tip number / range
/// lower bound).
template <typename T>
inline T AtomicClampedSub(T* target, T delta, T floor) {
  auto* a = reinterpret_cast<std::atomic<T>*>(target);
  T cur = a->load(std::memory_order_relaxed);
  while (true) {
    T next = (cur > floor + delta) ? cur - delta : floor;
    if (a->compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return next;
    }
  }
}

/// Atomically sets `*target = max(*target, value)`.
template <typename T>
inline void AtomicMax(T* target, T value) {
  auto* a = reinterpret_cast<std::atomic<T>*>(target);
  T cur = a->load(std::memory_order_relaxed);
  while (cur < value &&
         !a->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// Exclusive prefix sum over `values`, returning the total. values[i] becomes
/// the sum of the original values[0..i).
template <typename T>
T ExclusivePrefixSum(std::vector<T>& values) {
  T running = 0;
  for (auto& v : values) {
    T next = running + v;
    v = running;
    running = next;
  }
  return running;
}

/// Order-preserving parallel filter: fills `out` with make(i) for every
/// i ∈ [0, n) satisfying pred(i), in ascending i — bit-identical to the
/// sequential loop. Two passes over contiguous blocks (count, prefix-sum,
/// fill), so `pred` must be pure between the passes; every caller in this
/// library evaluates it on state that is frozen between peeling rounds
/// (liveness + support snapshots). Small inputs fall back to the sequential
/// loop: the fork/join overhead dwarfs the scan below a few thousand ids.
/// `offsets_scratch` (optional) supplies the per-block counter buffer so
/// repeated calls in a peeling loop stay allocation-free once warm.
template <typename T, typename Pred, typename Make>
void ParallelFilterInto(size_t n, int num_threads, std::vector<T>& out,
                        Pred&& pred, Make&& make,
                        std::vector<size_t>* offsets_scratch = nullptr) {
  out.clear();
  if (num_threads <= 1 || n < 4096) {
    for (size_t i = 0; i < n; ++i) {
      if (pred(i)) out.push_back(make(i));
    }
    return;
  }
  const size_t num_blocks = static_cast<size_t>(num_threads) * 4;
  const size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<size_t> local_offsets;
  std::vector<size_t>& offsets =
      offsets_scratch != nullptr ? *offsets_scratch : local_offsets;
  offsets.assign(num_blocks, 0);
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t lo = b * block;
    const size_t hi = lo + block < n ? lo + block : n;
    size_t count = 0;
    for (size_t i = lo; i < hi; ++i) count += pred(i) ? 1 : 0;
    offsets[b] = count;
  }
  const size_t total = ExclusivePrefixSum(offsets);
  out.resize(total);
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t lo = b * block;
    const size_t hi = lo + block < n ? lo + block : n;
    size_t pos = offsets[b];
    for (size_t i = lo; i < hi; ++i) {
      if (pred(i)) out[pos++] = make(i);
    }
  }
}

/// Deterministic parallel reduction: sums make(i) over i ∈ [0, n) with
/// per-block partial sums (static blocks) folded sequentially in block
/// order, so for associative element types (the engine sums integer peel
/// costs) the result is independent of thread count and schedule — the
/// property the coarse decomposer's bit-identicality guarantees rest on.
/// Small inputs run sequentially (fork/join overhead dwarfs the sum).
/// `partials_scratch` (optional) supplies the per-block buffer so repeated
/// calls in a peeling loop stay allocation-free once warm.
template <typename T, typename Make>
T ParallelReduceSum(size_t n, int num_threads, Make&& make,
                    std::vector<T>* partials_scratch = nullptr) {
  if (num_threads <= 1 || n < 4096) {
    T total{};
    for (size_t i = 0; i < n; ++i) total += make(i);
    return total;
  }
  const size_t num_blocks = static_cast<size_t>(num_threads) * 4;
  const size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<T> local_partials;
  std::vector<T>& partials =
      partials_scratch != nullptr ? *partials_scratch : local_partials;
  partials.assign(num_blocks, T{});
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t lo = b * block;
    const size_t hi = lo + block < n ? lo + block : n;
    T sum{};
    for (size_t i = lo; i < hi; ++i) sum += make(i);
    partials[b] = sum;
  }
  T total{};
  for (const T& sum : partials) total += sum;
  return total;
}

/// Deterministic parallel maximum of make(i) over i ∈ [0, n): same
/// block-partial scheme as ParallelReduceSum (max is associative and
/// commutative, so the fold order never matters). Small inputs run
/// sequentially.
template <typename T, typename Make>
T ParallelReduceMax(size_t n, int num_threads, Make&& make, T identity = T{}) {
  if (num_threads <= 1 || n < 4096) {
    T best = identity;
    for (size_t i = 0; i < n; ++i) best = std::max<T>(best, make(i));
    return best;
  }
  const size_t num_blocks = static_cast<size_t>(num_threads) * 4;
  const size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<T> partials(num_blocks, identity);
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t lo = b * block;
    const size_t hi = lo + block < n ? lo + block : n;
    T best = identity;
    for (size_t i = lo; i < hi; ++i) best = std::max<T>(best, make(i));
    partials[b] = best;
  }
  T best = identity;
  for (const T& candidate : partials) best = std::max<T>(best, candidate);
  return best;
}

/// A cache-line padded counter; one per thread, folded at the end of a phase.
/// Avoids false sharing on the hot wedge-traversal counters.
struct alignas(64) PaddedCounter {
  uint64_t value = 0;
};

/// A fixed-size set of per-thread counters with a fold operation.
class PerThreadCounters {
 public:
  explicit PerThreadCounters(int num_threads)
      : counters_(static_cast<size_t>(num_threads)) {}

  /// Adds `delta` to the calling thread's slice. Must be called with a thread
  /// id < num_threads used at construction.
  void Add(int tid, uint64_t delta) {
    counters_[static_cast<size_t>(tid)].value += delta;
  }

  /// Sums all per-thread slices.
  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& c : counters_) total += c.value;
    return total;
  }

 private:
  std::vector<PaddedCounter> counters_;
};

}  // namespace receipt

#endif  // RECEIPT_UTIL_PARALLEL_H_
