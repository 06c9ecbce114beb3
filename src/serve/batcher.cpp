#include "serve/batcher.h"

#include "obs/obs.h"
#include "util/error.h"

namespace emoleak::serve {

void BatcherConfig::validate() const {
  if (shard_count == 0) {
    throw util::ConfigError{"BatcherConfig: shard_count == 0"};
  }
  if (queue_capacity == 0) {
    throw util::ConfigError{"BatcherConfig: queue_capacity == 0"};
  }
}

RequestBatcher::RequestBatcher(BatcherConfig config) {
  config.validate();
  shards_.reserve(config.shard_count);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    shards_.push_back(
        std::make_unique<util::BoundedQueue<PushRequest>>(config.queue_capacity));
  }
}

bool RequestBatcher::submit(PushRequest request) {
  const std::size_t shard = shard_of(request.stream_id);
  return shards_[shard]->try_push(std::move(request));
}

std::size_t RequestBatcher::drain(
    const std::function<void(PushRequest&)>& process,
    const util::Parallelism& parallelism) {
  // Snapshot each shard's backlog up front so the cycle is bounded:
  // requests submitted while the drain runs wait for the next cycle
  // rather than extending this one indefinitely.
  std::vector<std::vector<PushRequest>> backlog(shards_.size());
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += shards_[s]->drain_into(backlog[s]);
  }
  if (total == 0) return 0;
  OBS_SPAN_ARG("serve.batch", "requests", total);
  // Fan out only over shards with a backlog. A drain whose requests all
  // sit in one shard (nearly every drain under open-loop load) then
  // runs inline on the calling thread instead of waking the pool.
  std::vector<std::size_t> busy;
  for (std::size_t s = 0; s < backlog.size(); ++s) {
    if (!backlog[s].empty()) busy.push_back(s);
  }
  util::parallel_for(parallelism, busy.size(), [&](std::size_t i) {
    OBS_SPAN_ARG("serve.shard", "shard", busy[i]);
    for (PushRequest& request : backlog[busy[i]]) process(request);
  });
  return total;
}

}  // namespace emoleak::serve
