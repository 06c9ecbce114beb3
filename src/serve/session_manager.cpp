#include "serve/session_manager.h"

#include <algorithm>
#include <utility>

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

SessionManager::Session::Session(const SessionConfig& config,
                                 ModelRegistry::ModelPtr model)
    : attack{config.stream, config.sample_rate_hz, std::move(model)} {}

SessionManager::SessionManager(SessionConfig config,
                               std::shared_ptr<ModelRegistry> registry,
                               ServeCounters& counters)
    : config_{std::move(config)},
      registry_{std::move(registry)},
      counters_{counters} {
  config_.validate();
  if (!registry_) {
    throw util::ConfigError{"SessionManager: null model registry"};
  }
}

SessionManager::Session* SessionManager::acquire(std::uint64_t stream_id,
                                                 std::uint64_t tick) {
  std::lock_guard<std::mutex> lock{mutex_};
  const auto it = sessions_.find(stream_id);
  if (it != sessions_.end()) {
    it->second->last_active_tick = tick;
    return it->second.get();
  }
  if (sessions_.size() >= config_.max_sessions) return nullptr;

  std::unique_ptr<Session> session;
  auto [model, generation] = registry_->current_with_generation();
  if (!free_pool_.empty()) {
    session = std::move(free_pool_.back());
    free_pool_.pop_back();
    session->attack.reset();
    // A recycled session may have served a different task: reset the
    // feature route along with the model, not just the detector state.
    session->attack.set_classifier(std::move(model),
                                   core::FeatureRoute::kTableFeatures);
    session->outbox.clear();
    session->pending.clear();
    counters_.sessions_pooled.add(1);
  } else {
    session = std::make_unique<Session>(config_, std::move(model));
  }
  session->stream_id = stream_id;
  session->last_active_tick = tick;
  session->model_generation = generation;
  session->model_name.clear();
  session->task = nullptr;  // service re-binds on first processed request
  counters_.sessions_created.add(1);
  Session* raw = session.get();
  sessions_.emplace(stream_id, std::move(session));
  counters_.sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
  return raw;
}

void SessionManager::retire(std::unique_ptr<Session> session) {
  // Bounded pool: keeping more parked sessions than the table can hold
  // live would just hoard history buffers.
  if (free_pool_.size() < config_.max_sessions) {
    free_pool_.push_back(std::move(session));
  }
}

void SessionManager::resolve_pending_solo(Session& session) {
  for (core::PendingWindow& p : session.pending) {
    core::EmotionEvent& event = session.outbox[p.slot];
    event.probabilities = p.classifier->predict_proba(p.input);
    event.predicted_class = static_cast<int>(
        std::max_element(event.probabilities.begin(),
                         event.probabilities.end()) -
        event.probabilities.begin());
    counters_.windows_solo.add(1);
  }
  session.pending.clear();
}

bool SessionManager::finish(std::uint64_t stream_id, std::uint64_t flow,
                            std::uint64_t arrival_ns) {
  std::lock_guard<std::mutex> lock{mutex_};
  const auto it = sessions_.find(stream_id);
  if (it == sessions_.end()) return false;
  std::unique_ptr<Session> session = std::move(it->second);
  sessions_.erase(it);
  counters_.sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
  // A finish mid-tick can retire a session whose earlier regions are
  // still waiting on the batch step; resolve them solo (bit-identical)
  // before the outbox leaves the session.
  resolve_pending_solo(*session);
  if (auto last = session->attack.finish()) {
    last->flow = flow;
    last->arrival_ns = arrival_ns;
    session->outbox.push_back(*last);
  }
  // The outbox must survive retirement until take_events(); park the
  // events on the side rather than losing them with the pool slot.
  for (core::EmotionEvent& event : session->outbox) {
    orphaned_events_.emplace_back(stream_id, std::move(event));
  }
  session->outbox.clear();
  retire(std::move(session));
  return true;
}

std::size_t SessionManager::evict_idle(std::uint64_t tick) {
  if (config_.idle_timeout_ticks == 0) return 0;
  std::lock_guard<std::mutex> lock{mutex_};
  std::size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session& session = *it->second;
    if (tick - session.last_active_tick >= config_.idle_timeout_ticks) {
      resolve_pending_solo(session);
      if (auto last = session.attack.finish()) {
        session.outbox.push_back(*last);
      }
      for (core::EmotionEvent& event : session.outbox) {
        orphaned_events_.emplace_back(session.stream_id, std::move(event));
      }
      session.outbox.clear();
      retire(std::move(it->second));
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  counters_.sessions_evicted.add(evicted);
  counters_.sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
  return evicted;
}

std::vector<std::pair<std::uint64_t, core::EmotionEvent>>
SessionManager::take_events() {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<std::pair<std::uint64_t, core::EmotionEvent>> out;
  out.swap(orphaned_events_);
  for (auto& [id, session] : sessions_) {
    for (core::EmotionEvent& event : session->outbox) {
      out.emplace_back(id, std::move(event));
    }
    session->outbox.clear();
  }
  // Deterministic order across streams: sort by stream id; the sort is
  // stable, so each stream's events keep their emission order.
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

std::vector<SessionManager::PendingEntry> SessionManager::take_pending() {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<PendingEntry> out;
  for (auto& [id, session] : sessions_) {
    for (core::PendingWindow& window : session->pending) {
      out.push_back(PendingEntry{session.get(), std::move(window)});
    }
    session->pending.clear();
  }
  // Deterministic assembly order regardless of hash-map iteration or
  // shard scheduling: (stream id, outbox slot).
  std::sort(out.begin(), out.end(), [](const PendingEntry& a,
                                       const PendingEntry& b) {
    if (a.session->stream_id != b.session->stream_id) {
      return a.session->stream_id < b.session->stream_id;
    }
    return a.window.slot < b.window.slot;
  });
  return out;
}

}  // namespace emoleak::serve
