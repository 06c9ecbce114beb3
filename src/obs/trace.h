// emoleak::obs tracing — RAII scoped spans in per-thread lock-free
// ring buffers, exported as Chrome trace_event JSON.
//
// A run-time gate keeps the cost off the data path: with tracing
// disabled (the default), a Span constructor is one relaxed atomic load
// and a branch (~1 ns, measured by BM_SpanOverhead) — no clock read, no
// record.
//
// When enabled, a span reads the steady clock at entry/exit and writes
// one fixed-size slot into the calling thread's ring. Rings are
// allocated once per thread (first span) and never resized, so the
// steady state performs zero heap allocation; a full ring wraps and
// overwrites the oldest spans (dropped counts are tracked). Slot fields
// are individual relaxed atomics and the ring head is published with a
// release store, so concurrent export is TSan-clean by construction:
// an exporter racing a wrap may read a mixed slot, never a torn or
// invalid one. Span names must be string literals (or otherwise outlive
// the process) — slots store the pointer, not a copy.
//
// Observation never perturbs results: spans carry no data-path state,
// and tests assert bit-identical pipeline output with tracing on/off.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace emoleak::obs {

/// Runtime switch for span recording. Off by default.
void set_trace_enabled(bool on) noexcept;
[[nodiscard]] bool trace_enabled() noexcept;

/// Drops every recorded span (rings stay allocated, threads stay
/// registered). Dropped-by-wrap counts are reset too.
void clear_trace();

/// Spans recorded across all threads, newest `ring_capacity` per
/// thread, as Chrome trace_event JSON ({"traceEvents": [...]}) —
/// loadable in chrome://tracing and Perfetto. ts/dur are microseconds
/// since the first trace use in this process.
[[nodiscard]] std::string trace_json();

/// trace_json() to a file; false (with no partial file guarantee
/// beyond the OS's) when the file cannot be opened.
bool write_trace_file(const std::string& path);

/// Spans lost to ring wrap-around since the last clear_trace().
[[nodiscard]] std::uint64_t trace_dropped();

/// Occupancy of one per-thread ring at export time.
struct TraceRingInfo {
  std::uint32_t tid = 0;
  std::uint64_t recorded = 0;  ///< slots currently held (≤ capacity)
  std::uint64_t dropped = 0;   ///< spans lost to wrap on this ring
};

/// Per-thread ring occupancy, one entry per registered thread.
[[nodiscard]] std::vector<TraceRingInfo> trace_ring_info();

/// Nanoseconds since the process trace epoch (first call).
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

/// Phase of a causal flow event (Chrome trace_event "s"/"t"/"f").
/// Flow events link spans that handle the same logical request across
/// threads: begin where the request enters, step at each hand-off,
/// end where its result leaves. Viewers bind each flow event to the
/// duration slice enclosing it on the recording thread, so emit them
/// from inside a live OBS_SPAN scope.
enum class FlowPhase : std::uint8_t {
  kNone = 0,   ///< ordinary duration span ("X")
  kBegin = 1,  ///< flow start ("s")
  kStep = 2,   ///< flow step ("t")
  kEnd = 3,    ///< flow finish ("f", binding point "e")
};

namespace detail {

/// One recorded span. Fields are independent relaxed atomics so an
/// export racing a ring wrap is data-race-free (see file comment).
/// For flow events (phase != kNone) `arg` carries the flow id.
struct SpanSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> arg_name{nullptr};
  std::atomic<std::uint64_t> arg{0};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::atomic<std::uint8_t> phase{0};
};

class TraceRing {
 public:
  static constexpr std::size_t kCapacity = 8192;  ///< spans per thread

  explicit TraceRing(std::uint32_t tid) : slots_(kCapacity), tid_{tid} {}

  /// Single writer: only the owning thread records.
  void record(const char* name, const char* arg_name, std::uint64_t arg,
              std::uint64_t start_ns, std::uint64_t dur_ns,
              FlowPhase phase = FlowPhase::kNone) noexcept {
    const std::uint64_t i = head_.load(std::memory_order_relaxed);
    SpanSlot& s = slots_[i % kCapacity];
    s.name.store(name, std::memory_order_relaxed);
    s.arg_name.store(arg_name, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.start_ns.store(start_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    s.phase.store(static_cast<std::uint8_t>(phase), std::memory_order_relaxed);
    head_.store(i + 1, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t head() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const SpanSlot& slot(std::uint64_t i) const noexcept {
    return slots_[i % kCapacity];
  }
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
  void reset() noexcept { head_.store(0, std::memory_order_release); }

 private:
  std::vector<SpanSlot> slots_;
  std::atomic<std::uint64_t> head_{0};  ///< total spans ever recorded
  std::uint32_t tid_;
};

/// The calling thread's ring, registering it on first use. The global
/// registry owns the rings, so they outlive their threads and export
/// after a join sees everything.
[[nodiscard]] TraceRing& thread_ring();

}  // namespace detail

/// Records one flow event on the calling thread's ring. `id` ties the
/// begin/step/end phases of one logical request together across
/// threads; `name` must be the same literal at every phase (Chrome
/// matches flows by name + id) and must outlive the trace. A disabled
/// trace costs one relaxed load.
inline void record_flow(const char* name, FlowPhase phase,
                        std::uint64_t id) noexcept {
  if (!trace_enabled()) return;
  detail::thread_ring().record(name, nullptr, id, trace_now_ns(), 0, phase);
}

/// RAII scoped span. Use through the OBS_SPAN macros (obs.h); construct
/// directly in tests. `name` (and `arg_name`) must outlive the trace —
/// pass string literals.
class Span {
 public:
  explicit Span(const char* name) noexcept : Span{name, nullptr, 0} {}

  Span(const char* name, const char* arg_name, std::uint64_t arg) noexcept {
    if (!trace_enabled()) return;  // one relaxed load; name_ stays null
    name_ = name;
    arg_name_ = arg_name;
    arg_ = arg;
    start_ns_ = trace_now_ns();
  }

  ~Span() {
    if (name_ == nullptr) return;
    const std::uint64_t end = trace_now_ns();
    detail::thread_ring().record(name_, arg_name_, arg_, start_ns_,
                                 end - start_ns_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_ = 0;
  std::uint64_t start_ns_ = 0;
};

}  // namespace emoleak::obs
