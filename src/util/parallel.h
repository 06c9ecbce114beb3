// Deterministic data-parallel helpers over the shared ThreadPool.
//
// Every parallel region in the library goes through parallel_for /
// parallel_map so the determinism contract lives in one place:
//
//  * results are written into per-index slots and reduced in index
//    order, so the output is bit-identical to the serial loop at any
//    thread count;
//  * any RNG draws a task needs are either precomputed serially before
//    the parallel region (preserving the legacy serial stream) or taken
//    from task_rng(seed, i), a per-task stream that depends only on the
//    seed and the task index — never on scheduling;
//  * Parallelism{.threads = 1} forces the plain serial loop, and nested
//    regions (a parallel task reaching another parallel_for) always run
//    inline, so there is exactly one level of fan-out.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace emoleak::util {

/// Thread-count knob shared by every parallel layer (extraction,
/// cross-validation, ensemble training, bench sweeps).
struct Parallelism {
  /// 0 = hardware_concurrency; 1 = force the serial path; N = cap at N.
  std::size_t threads = 0;

  [[nodiscard]] std::size_t resolved() const noexcept {
    if (threads != 0) return threads;
    const std::size_t hw = ThreadPool::shared().thread_count() + 1;
    return hw > 0 ? hw : 1;
  }

  [[nodiscard]] bool serial() const noexcept { return resolved() <= 1; }

  [[nodiscard]] static Parallelism serial_only() noexcept {
    return Parallelism{.threads = 1};
  }
};

/// Derives the RNG stream for task `index` from a base seed. The stream
/// depends only on (seed, index), so tasks may run in any order on any
/// thread and still draw identical numbers.
[[nodiscard]] inline Rng task_rng(std::uint64_t seed, std::size_t index) {
  SplitMix64 sm{seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1))};
  return Rng{sm.next()};
}

/// Runs fn(i) for i in [0, count). Iterations must be independent;
/// ordering of side effects across iterations is unspecified, so write
/// results into per-index slots. Serial when par forces it or when there
/// is at most one iteration; a nested region runs inline inside run().
template <typename Fn>
void parallel_for(const Parallelism& par, std::size_t count, Fn&& fn) {
  if (count <= 1 || par.serial()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const std::function<void(std::size_t)> task{std::forward<Fn>(fn)};
  ThreadPool::shared().run(count, task, par.resolved());
}

/// Maps fn over [0, count) and returns the results in index order —
/// a deterministic, ordered reduction independent of thread count.
template <typename Fn>
[[nodiscard]] auto parallel_map(const Parallelism& par, std::size_t count,
                                Fn&& fn) {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<std::optional<R>> slots(count);
  parallel_for(par, count, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(count);
  for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace emoleak::util
