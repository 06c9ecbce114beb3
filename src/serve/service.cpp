#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "obs/obs.h"
#include "util/error.h"

namespace emoleak::serve {

void SessionConfig::validate() const {
  stream.validate();
  if (sample_rate_hz <= 0.0) {
    throw util::ConfigError{"SessionConfig: sample_rate_hz <= 0"};
  }
  if (max_sessions == 0) {
    throw util::ConfigError{"SessionConfig: max_sessions == 0"};
  }
}

void BatcherConfig::validate() const {
  if (shard_count == 0) {
    throw util::ConfigError{"BatcherConfig: shard_count == 0"};
  }
  if (queue_capacity == 0) {
    throw util::ConfigError{"BatcherConfig: queue_capacity == 0"};
  }
}

void ServeConfig::validate() const {
  session.validate();
  batcher.validate();
}

namespace {

/// Appends the events one attack.push() or attack.finish() just
/// returned, stamped with the closing request's telemetry riders (see
/// EmotionEvent), and rebases that call's deferred windows from its
/// event slots onto the outbox.
void append(Session& session, std::span<core::EmotionEvent> events,
            std::uint64_t flow, std::uint64_t arrival_ns) {
  const std::size_t outbox_base = session.outbox.size();
  for (core::EmotionEvent& event : events) {
    event.flow = flow;
    event.arrival_ns = arrival_ns;
    session.outbox.push_back(std::move(event));
  }
  for (core::PendingWindow& window : session.attack.take_pending()) {
    window.slot += outbox_base;
    session.pending.push_back(std::move(window));
  }
}

}  // namespace

ServeService::ServeService(ServeConfig config,
                           std::shared_ptr<ModelRegistry> registry)
    : config_{std::move(config)},
      registry_{std::move(registry)} {
  config_.validate();
  if (!registry_) throw util::ConfigError{"ServeService: null model registry"};
  shards_.resize(config_.batcher.shard_count);
}

Status ServeService::admit(PushRequest request) {
  if (!request.start) {
    request.arrival_ns = obs::trace_now_ns();
    request.flow = flow_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  const std::uint64_t flow = request.flow;
  {
    std::lock_guard<std::mutex> lock{sessions_mutex_};
    // The stream's newest session, if no finish for it was admitted.
    const std::uint64_t stream_id = request.stream_id;
    const auto after = sessions_.upper_bound(
        {stream_id, std::numeric_limits<std::uint64_t>::max()});
    if (after != sessions_.begin()) {
      auto& [key, newest] = *std::prev(after);
      if (key.first == stream_id && !newest.closed) request.session = &newest;
    }
    const bool opens = request.session == nullptr && !request.finish;
    if (opens && sessions_.size() >= config_.session.max_sessions) {
      counters_.rejected_capacity.add(1);
      return Status::kNoCapacity;
    }
    std::vector<PushRequest>& shard =
        shards_[shard_of(stream_id, shards_.size())];
    if (shard.size() >= config_.batcher.queue_capacity) {
      counters_.rejected_overload.add(1);
      return Status::kOverloaded;
    }
    if (opens) {
      request.session = &sessions_
                             .try_emplace({stream_id, sessions_opened_++},
                                          config_.session)
                             .first->second;
      counters_.sessions_created.add(1);
      counters_.sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
    } else if (request.finish && request.session != nullptr) {
      request.session->closed = true;
    }
    shard.push_back(std::move(request));
  }
  // Flow begins only for admitted work — a rejected request never
  // crosses a thread, so there is nothing to link.
  if (flow != 0) OBS_FLOW_BEGIN("serve.flow", flow);
  counters_.accepted.add(1);
  return Status::kOk;
}

Status ServeService::push(std::uint64_t stream_id,
                          std::vector<double> samples) {
  OBS_SPAN_ARG("serve.push", "stream", stream_id);
  counters_.requests.add(1);
  if (!std::all_of(samples.begin(), samples.end(),
                   [](double v) { return std::isfinite(v); })) {
    // StreamingAttack::push would throw on the drain thread; refuse the
    // chunk here, before it takes queue room.
    return Status::kError;
  }
  PushRequest request;
  request.stream_id = stream_id;
  request.samples = std::move(samples);
  return admit(std::move(request));
}

Status ServeService::finish_stream(std::uint64_t stream_id) {
  OBS_SPAN_ARG("serve.finish", "stream", stream_id);
  counters_.requests.add(1);
  PushRequest request;
  request.stream_id = stream_id;
  request.finish = true;
  return admit(std::move(request));
}

Status ServeService::start_stream(std::uint64_t stream_id,
                                  std::string model_name) {
  counters_.requests.add(1);
  if (!model_name.empty() && !registry_->has(model_name)) {
    // Reject before enqueueing: an unknown task name is a client error,
    // not load, so it must not consume shard-queue room.
    return Status::kError;
  }
  PushRequest request;
  request.stream_id = stream_id;
  request.start = true;
  request.model_name = std::move(model_name);
  return admit(std::move(request));
}

void ServeService::bind_session(Session& session) {
  const ModelRegistry::Resolved resolved =
      registry_->resolve(session.model_name);
  session.attack.set_classifier(resolved.model, resolved.route);
  session.attack.set_deferred(true);
  session.model_generation = resolved.generation;
  ServeCounters::TaskCounters& task =
      counters_.task(resolved.name.empty() ? "(default)" : resolved.name);
  // One "stream" per task a session lands on: counted on first bind and
  // on a rebind that actually changed tasks, not on hot-swap refreshes
  // of the same name.
  if (session.task != &task) {
    task.streams.add(1);
    session.task = &task;
  }
}

void ServeService::process(PushRequest& request) {
  OBS_SPAN_ARG("serve.process", "stream", request.stream_id);
  if (request.flow != 0) OBS_FLOW_STEP("serve.flow", request.flow);
  if (request.arrival_ns != 0) {
    const std::uint64_t now = obs::trace_now_ns();
    if (now >= request.arrival_ns) {
      counters_.record_fifo_wait(now - request.arrival_ns);
    }
  }
  Session* const session = request.session;
  if (session == nullptr) return;  // finish of a stream with no session
  if (request.finish) {
    if (auto last = session->attack.finish()) {
      append(*session, {&*last, 1}, request.flow, request.arrival_ns);
    }
    session->finished = true;
    return;
  }
  if (request.start) {
    // Ordered ahead of the stream's subsequent chunks by the shard
    // FIFO, so the binding is in place before any sample of the stream
    // is processed.
    session->model_name = std::move(request.model_name);
    bind_session(*session);
    return;
  }
  // Lazy hot-swap: an add()/activate() since this session's last
  // request re-resolves its *own* model name before the next region
  // closes. The generation probe is one relaxed atomic load; the
  // registry lock is only taken when a swap actually happened (or on
  // the session's very first request).
  if (session->task == nullptr ||
      session->model_generation != registry_->generation()) {
    bind_session(*session);
  }
  const std::uint64_t t0 = obs::trace_now_ns();
  std::vector<core::EmotionEvent> events = session->attack.push(
      std::span<const double>{request.samples.data(), request.samples.size()});
  counters_.chunks_processed.add(1);
  counters_.samples_processed.add(request.samples.size());
  session->task->samples.add(request.samples.size());
  if (!events.empty()) {
    counters_.events_emitted.add(events.size());
    session->task->events.add(events.size());
    // Attribute the chunk's wall time to the task only when a region
    // actually closed — classification dominates the cost, and this is
    // the per-task latency the mitigation study compares.
    session->task->region_ns.record(obs::trace_now_ns() - t0);
    // The closing chunk's telemetry riders travel with the event: the
    // flow id links this region's spans across threads, the arrival
    // stamp feeds serve.e2e_latency_ns at write-out.
    append(*session, events, request.flow, request.arrival_ns);
  }
}

std::size_t ServeService::drain() {
  OBS_SPAN("serve.drain");
  std::lock_guard<std::mutex> lock{drain_mutex_};
  counters_.drains.add(1);

  const auto t0 = std::chrono::steady_clock::now();
  // Snapshot every busy shard's FIFO in one lock acquisition, so the
  // cycle is bounded: requests admitted while the drain runs wait for
  // the next one rather than extending this one indefinitely.
  std::size_t processed = 0;
  {
    std::vector<std::pair<std::size_t, std::vector<PushRequest>>> busy;
    {
      std::lock_guard<std::mutex> sessions_lock{sessions_mutex_};
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (shards_[s].empty()) continue;
        processed += shards_[s].size();
        busy.emplace_back(s, std::exchange(shards_[s], {}));
      }
    }
    if (processed == 0) return 0;
    OBS_SPAN_ARG("serve.batch", "requests", processed);
    // Fan out only over the busy shards. A drain whose requests all sit
    // in one shard (nearly every drain under open-loop load) runs
    // inline on the calling thread instead of waking the pool.
    util::parallel_for(config_.parallelism, busy.size(), [&](std::size_t i) {
      OBS_SPAN_ARG("serve.shard", "shard", busy[i].first);
      for (PushRequest& request : busy[i].second) process(request);
    });
  }
  run_batched_classify(release_sessions());
  const auto t1 = std::chrono::steady_clock::now();
  counters_.record_drain_latency(
      std::chrono::duration<double, std::micro>(t1 - t0).count());
  return processed;
}

std::vector<ServeService::PendingEntry> ServeService::release_sessions() {
  std::vector<PendingEntry> pending;
  std::lock_guard<std::mutex> lock{sessions_mutex_};
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session& session = it->second;
    if (!session.outbox.empty()) {
      std::vector<core::EmotionEvent>& ready = ready_[it->first];
      const std::size_t base = ready.size();
      ready.insert(ready.end(), std::make_move_iterator(session.outbox.begin()),
                   std::make_move_iterator(session.outbox.end()));
      session.outbox.clear();
      for (core::PendingWindow& window : session.pending) {
        pending.push_back({&ready[base + window.slot], std::move(window)});
      }
      session.pending.clear();
    }
    it = session.finished ? sessions_.erase(it) : std::next(it);
  }
  counters_.sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
  return pending;
}

void ServeService::run_batched_classify(
    const std::vector<PendingEntry>& pending) {
  if (pending.empty()) return;
  OBS_SPAN_ARG("serve.batch_classify", "windows", pending.size());
  // Group by (captured model, input width) in first-seen order over the
  // (stream, slot)-sorted entries — deterministic at any thread count.
  // The width key is belt-and-braces: one model only ever sees one
  // input space, but a mixed group would corrupt the row matrix.
  struct Group {
    const ml::Classifier* model = nullptr;
    std::size_t dim = 0;
    std::vector<std::size_t> members;  ///< indices into `pending`
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const ml::Classifier* model = pending[i].window.classifier.get();
    const std::size_t dim = pending[i].window.input.size();
    auto it = std::find_if(groups.begin(), groups.end(),
                           [model, dim](const Group& g) {
                             return g.model == model && g.dim == dim;
                           });
    if (it == groups.end()) {
      groups.push_back(Group{model, dim, {}});
      it = std::prev(groups.end());
    }
    it->members.push_back(i);
  }
  std::vector<double> rows;
  for (const Group& group : groups) {
    const std::size_t count = group.members.size();
    rows.clear();
    rows.reserve(count * group.dim);
    for (const std::size_t m : group.members) {
      const std::vector<double>& input = pending[m].window.input;
      rows.insert(rows.end(), input.begin(), input.end());
    }
    const std::vector<double> probs =
        group.model->predict_proba_batch(rows, group.dim, count);
    const std::size_t classes = probs.size() / count;
    for (std::size_t i = 0; i < count; ++i) {
      core::EmotionEvent& event = *pending[group.members[i]].event;
      const auto first =
          probs.begin() + static_cast<std::ptrdiff_t>(i * classes);
      const auto last = first + static_cast<std::ptrdiff_t>(classes);
      event.probabilities.assign(first, last);
      event.predicted_class =
          static_cast<int>(std::max_element(first, last) - first);
      if (event.flow != 0) OBS_FLOW_STEP("serve.flow", event.flow);
    }
    counters_.record_batch(count);
  }
}

std::vector<EventMsg> ServeService::take_events() {
  OBS_SPAN("serve.events");
  std::lock_guard<std::mutex> lock{drain_mutex_};
  std::vector<EventMsg> out;
  const std::uint64_t now = obs::trace_now_ns();
  for (auto& [key, events] : ready_) {
    for (core::EmotionEvent& event : events) {
      // End of the causal chain: the event is leaving for encoding. The
      // e2e histogram covers chunk arrival -> here, which (unlike drain
      // latency) includes shard-FIFO queueing and any ticks a deferred
      // window waited for its batch.
      if (event.arrival_ns != 0 && now >= event.arrival_ns) {
        counters_.record_e2e_latency(now - event.arrival_ns);
      }
      if (event.flow != 0) OBS_FLOW_END("serve.flow", event.flow);
      out.push_back(EventMsg{key.first, std::move(event)});
    }
  }
  ready_.clear();
  return out;
}

obs::RegistrySnapshot ServeService::metrics_snapshot() const {
  // Service-local first (serve.*, serve.task.*, net.* registered by the
  // transport), then the process-wide registry (kernel/cache/pool) —
  // the service view wins name collisions, and the merge keeps the
  // name-sorted order scrapers rely on.
  return obs::merge_snapshots(counters_.registry().snapshot(),
                              obs::Registry::instance().snapshot());
}

HandleResult ServeService::handle_frames(std::string_view bytes) {
  HandleResult result;
  FrameReader reader{bytes};
  for (;;) {
    std::optional<Message> msg;
    try {
      msg = reader.next();
    } catch (const util::DataError&) {
      // One malformed client must not abort the batch: earlier valid
      // frames keep their replies, the offender gets a kError ack, and
      // the transport closes only that connection.
      encode(result.reply, AckMsg{Status::kError});
      result.corrupt = true;
      break;
    }
    if (!msg) break;  // clean end, or a partial tail left unconsumed
    result.consumed = reader.offset();
    ++result.frames;
    std::visit(
        [this, &result](auto& m) {
          using T = std::decay_t<decltype(m)>;
          const auto ack = [this, &result](Status status) {
            AckMsg a{status};
            if (status == Status::kOverloaded ||
                status == Status::kNoCapacity) {
              a.retry_after_ms = kRetryAfterMs;
            }
            if (status == Status::kOverloaded) ++result.overloaded;
            encode(result.reply, a);
          };
          if constexpr (std::is_same_v<T, ChunkPushMsg>) {
            result.streams_touched.push_back(m.stream_id);
            ack(push(m.stream_id, std::move(m.samples)));
          } else if constexpr (std::is_same_v<T, StreamStartMsg>) {
            result.streams_touched.push_back(m.stream_id);
            ack(start_stream(m.stream_id, std::move(m.model_name)));
          } else if constexpr (std::is_same_v<T, StreamFinishMsg>) {
            const Status status = finish_stream(m.stream_id);
            if (status == Status::kOk) {
              result.finishes_admitted.push_back(result.streams_touched.size());
            }
            result.streams_touched.push_back(m.stream_id);
            ack(status);
          } else if constexpr (std::is_same_v<T, MetricsRequestMsg>) {
            try {
              encode(result.reply, MetricsReplyMsg{metrics_snapshot()});
            } catch (const util::DataError&) {
              // A snapshot too large to frame (pathological metric
              // count) degrades to an error ack, never a torn frame.
              ack(Status::kError);
            }
          } else if constexpr (std::is_same_v<T, TraceRequestMsg>) {
            TraceReplyMsg reply;
            reply.dropped_spans = obs::trace_dropped();
            reply.trace_json = obs::trace_json();
            try {
              encode(result.reply, reply);
            } catch (const util::DataError&) {
              ack(Status::kError);
            }
          } else {
            // Server-to-client message types arriving at the service
            // (Event, Ack, MetricsReply, TraceReply) are protocol
            // misuse, not fatal.
            ack(Status::kError);
          }
        },
        *msg);
  }
  return result;
}

std::string ServeService::handle(std::string_view bytes) {
  HandleResult result = handle_frames(bytes);
  if (!result.corrupt && result.consumed < bytes.size()) {
    // The in-process transport hands over whole buffers, so a partial
    // trailing frame is a framing bug on the caller's side.
    encode(result.reply, AckMsg{Status::kError});
  }
  return std::move(result.reply);
}

std::string ServeService::poll_events() {
  std::string out;
  for (const EventMsg& event : take_events()) {
    encode(out, event);
  }
  return out;
}

}  // namespace emoleak::serve
