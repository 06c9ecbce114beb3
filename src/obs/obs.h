// emoleak::obs — umbrella header and the OBS_SPAN macros.
//
// Usage on a hot path:
//
//   void drain() {
//     OBS_SPAN("serve.drain");             // whole-function span
//     ...
//     OBS_SPAN_ARG("serve.process", "stream", stream_id);
//   }
//
// With tracing runtime-disabled (the default), a span costs one
// relaxed atomic load; enabled it costs two steady-clock reads and a
// ring-slot write (see obs/trace.h). Metrics (obs/metrics.h) counters
// are one relaxed fetch_add.
#pragma once

#include "obs/metrics.h"
#include "obs/trace.h"

#define EMOLEAK_OBS_CONCAT_INNER(a, b) a##b
#define EMOLEAK_OBS_CONCAT(a, b) EMOLEAK_OBS_CONCAT_INNER(a, b)

/// Scoped span named by a string literal.
#define OBS_SPAN(name) \
  ::emoleak::obs::Span EMOLEAK_OBS_CONCAT(obs_span_, __LINE__) { name }
/// Scoped span with one numeric argument (shown in the trace viewer).
#define OBS_SPAN_ARG(name, key, value)                          \
  ::emoleak::obs::Span EMOLEAK_OBS_CONCAT(obs_span_, __LINE__) {  \
    name, key, static_cast<std::uint64_t>(value)                \
  }
/// Causal flow phases: begin where a request enters, step at each
/// cross-thread hand-off, end where its result leaves. Emit inside a
/// live OBS_SPAN scope so viewers can bind the flow to a slice. The
/// same `name` literal must be used at every phase of one flow family.
#define OBS_FLOW_BEGIN(name, id)                     \
  ::emoleak::obs::record_flow(name, ::emoleak::obs::FlowPhase::kBegin, \
                              static_cast<std::uint64_t>(id))
#define OBS_FLOW_STEP(name, id)                     \
  ::emoleak::obs::record_flow(name, ::emoleak::obs::FlowPhase::kStep, \
                              static_cast<std::uint64_t>(id))
#define OBS_FLOW_END(name, id)                     \
  ::emoleak::obs::record_flow(name, ::emoleak::obs::FlowPhase::kEnd, \
                              static_cast<std::uint64_t>(id))
