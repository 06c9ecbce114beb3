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

void SessionManager::Session::append(std::span<core::EmotionEvent> events,
                                     std::uint64_t flow,
                                     std::uint64_t arrival_ns) {
  const std::size_t outbox_base = outbox.size();
  for (core::EmotionEvent& event : events) {
    event.flow = flow;
    event.arrival_ns = arrival_ns;
    outbox.push_back(std::move(event));
  }
  for (core::PendingWindow& window : attack.take_pending()) {
    window.slot += outbox_base;
    pending.push_back(std::move(window));
  }
}

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

SessionManager::Session& SessionManager::acquire(std::uint64_t stream_id) {
  std::lock_guard<std::mutex> lock{mutex_};
  const auto it = sessions_.find(stream_id);
  if (it != sessions_.end()) return *it->second;

  auto [model, generation] = registry_->current_with_generation();
  auto session = std::make_unique<Session>(config_, std::move(model));
  session->stream_id = stream_id;
  session->model_generation = generation;
  counters_.sessions_created.add(1);
  Session& created = *session;
  sessions_.emplace(stream_id, std::move(session));
  counters_.sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
  return created;
}

bool SessionManager::finish(std::uint64_t stream_id, std::uint64_t flow,
                            std::uint64_t arrival_ns) {
  std::unique_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    const auto it = sessions_.find(stream_id);
    if (it == sessions_.end()) return false;
    session = std::move(it->second);
    sessions_.erase(it);
    counters_.sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
  }
  // Out of the table, so only this shard can reach the session: flush
  // its open region without holding the lock.
  if (auto last = session->attack.finish()) {
    session->append({&*last, 1}, flow, arrival_ns);
  }
  std::lock_guard<std::mutex> lock{mutex_};
  finished_.push_back(std::move(session));
  return true;
}

std::vector<SessionManager::PendingEntry> SessionManager::take_pending() {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<PendingEntry> out;
  const auto take = [&out](Session& session) {
    for (core::PendingWindow& window : session.pending) {
      out.push_back(PendingEntry{&session, std::move(window)});
    }
    session.pending.clear();
  };
  // Finished sessions first, in finish order (one shard processes all
  // of a stream id's requests in order), then the live table; the
  // stable sort by stream id keeps that order within an id.
  for (const std::unique_ptr<Session>& session : finished_) take(*session);
  for (auto& [id, session] : sessions_) take(*session);
  std::stable_sort(out.begin(), out.end(),
                   [](const PendingEntry& a, const PendingEntry& b) {
                     return a.session->stream_id < b.session->stream_id;
                   });
  return out;
}

std::vector<std::uint64_t> SessionManager::release_finished() {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<std::uint64_t> released;
  released.reserve(finished_.size());
  for (const std::unique_ptr<Session>& session : finished_) {
    for (core::EmotionEvent& event : session->outbox) {
      orphaned_events_.emplace_back(session->stream_id, std::move(event));
    }
    released.push_back(session->stream_id);
  }
  finished_.clear();
  return released;
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
  // stable, so each stream's events keep their emission order and a
  // released session's events (listed first) precede a restarted
  // stream's.
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

}  // namespace emoleak::serve
