// Request batching + admission control for the serving layer.
//
// Requests land on bounded per-shard MPSC queues (util::BoundedQueue);
// a full queue rejects at submit() — the service answers "overloaded"
// instead of queueing unboundedly, which is the backpressure policy the
// whole layer is built around. drain() snapshots every shard's backlog
// and fans the busy shards out over the shared thread pool: one task
// per shard with a backlog (a single busy shard runs inline on the
// caller), so all requests for a stream (same shard, FIFO queue) are
// processed sequentially in arrival order while distinct shards run in
// parallel. That sharding is the whole determinism argument — a
// stream's event sequence depends only on its own chunk order, never on
// thread count or scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/bounded_queue.h"
#include "util/parallel.h"

namespace emoleak::serve {

struct BatcherConfig {
  std::size_t shard_count = 8;
  std::size_t queue_capacity = 256;  ///< per shard, in requests

  void validate() const;
};

struct Session;

/// One unit of work: a chunk of samples for a stream, an end-of-stream
/// flush (`finish` set, `samples` empty), or a stream-open binding the
/// stream to a named model (`start` set). Starts travel through the
/// same per-stream FIFO as chunks, so a start is always applied before
/// the chunks submitted after it — the ordering the mixed-task
/// determinism contract rests on.
struct PushRequest {
  std::uint64_t stream_id = 0;
  std::vector<double> samples;
  bool finish = false;
  bool start = false;
  std::string model_name;  ///< for `start`: empty = registry default
  /// The stream's session, set at admission (ServeService): the one it
  /// opened or found open, or nullptr for a finish of a stream with no
  /// open session. The shard reaches it through this pointer without
  /// a table lookup or a lock.
  Session* session = nullptr;
  /// Telemetry riders (never touch classification): `flow` is the
  /// causal-trace id minted at admission and inherited by the events
  /// this request closes; `arrival_ns` is the obs::trace_now_ns()
  /// arrival stamp feeding the serve.e2e_latency_ns histogram. 0 = not
  /// stamped (requests built outside ServeService).
  std::uint64_t flow = 0;
  std::uint64_t arrival_ns = 0;
};

class RequestBatcher {
 public:
  explicit RequestBatcher(BatcherConfig config);

  /// Routes the request to its stream's shard. False = that shard's
  /// queue is full (overload) — the caller rejects, never blocks.
  [[nodiscard]] bool submit(PushRequest request);

  /// Drains every shard's current backlog, invoking `process` for each
  /// request (per-shard sequentially, busy shards in parallel across up
  /// to `parallelism` threads; one busy shard runs on the caller).
  /// Returns the number of requests processed.
  /// `process` must be safe to call concurrently for requests of
  /// *different* shards. Only one drain may run at a time (the service
  /// serializes callers).
  std::size_t drain(const std::function<void(PushRequest&)>& process,
                    const util::Parallelism& parallelism);

  [[nodiscard]] std::size_t shard_of(std::uint64_t stream_id) const noexcept {
    // splitmix64 finalizer: cheap, well-mixed, stable across runs.
    std::uint64_t x = stream_id + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % shards_.size());
  }

 private:
  std::vector<std::unique_ptr<util::BoundedQueue<PushRequest>>> shards_;
};

}  // namespace emoleak::serve
