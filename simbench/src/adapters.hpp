// The benchmark's only calls into simulator interfaces that the roadmap
// plans to replace: attaching the latency-attribution sink, and the Engine
// constructor that takes the access observer. When the observer hooks are
// unified, these two functions are the one place the benchmark changes.
#pragma once

#include "check/api.hpp"
#include "protocol/latency_backend.hpp"
#include "protocol/memory_system.hpp"
#include "sim/engine.hpp"
#include "trace/event_source.hpp"

namespace simbench {

/// Attaches `sink` (nullptr detaches) to every layer of `system` that
/// reports latency attribution.
inline void attach_attribution(dircc::MemorySystem& system,
                               dircc::AttributionSink* sink) {
  system.attach_attribution(sink);
}

/// What one engine run produced.
struct EngineRun {
  dircc::RunResult result;
  bool halted = false;  ///< the observer stopped the run early
};

/// Drives `source` through `system` on the serial engine, notifying
/// `observer` (may be null) after every shared-data access.
inline EngineRun run_engine(dircc::MemorySystem& system,
                            dircc::EventSource& source,
                            dircc::check::AccessObserver* observer) {
  dircc::Engine engine(system, source, dircc::EngineConfig{}, nullptr,
                       observer);
  EngineRun run;
  run.result = engine.run();
  run.halted = engine.halted_by_checker();
  return run;
}

}  // namespace simbench
