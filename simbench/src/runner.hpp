// Runs one workload cell: builds its machine, replays its input on the
// serial engine and collects its simulated outputs, either bare (the
// untraced pass) or through the timing wrappers (the traced pass).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "check/invariant_checker.hpp"
#include "checks.hpp"
#include "harness/trace_cache.hpp"
#include "layers.hpp"
#include "obs/attrib/collector.hpp"
#include "workloads.hpp"
#include "wrappers.hpp"

namespace simbench {

/// A workload's materialized inputs, fetched through one TraceCache.
struct Inputs {
  dircc::harness::TraceCache cache;
  /// Per cell, in cell order; null for streamed cells.
  std::vector<std::shared_ptr<const dircc::ProgramTrace>> traces;
  std::uint64_t trace_bytes = 0;  ///< resident event bytes, distinct traces
  std::int64_t build_ns = 0;      ///< time spent in TraceCache::get
};

/// Fetches every cell's input through a fresh TraceCache. With `spans`,
/// each fetch that builds a trace is recorded as a "trace.build" span.
std::unique_ptr<Inputs> prepare_inputs(const Workload& workload,
                                       std::vector<CoarseSpan>* spans);

/// A cell's simulated machine: the memory system plus the attribution
/// collector and invariant checker the cell asks for.
struct Machine {
  std::unique_ptr<dircc::CoherenceSystem> system;
  std::unique_ptr<dircc::obs::attrib::Collector> collector;
  std::unique_ptr<dircc::check::InvariantChecker> checker;
};

Machine build_machine(const Cell& cell);

/// Which timing wrappers a traced run goes through (all, normally; the
/// tests switch them on one at a time).
struct Wrap {
  bool source = true;
  bool memory = true;
  bool observer = true;
  bool sink = true;
};

/// What one run of a cell measured.
struct CellRun {
  CellOutputs outputs;
  std::int64_t start_ns = 0;  ///< when Engine::run began (now_ns())
  std::int64_t sim_ns = 0;    ///< Engine::run wall time
  std::uint64_t events = 0;   ///< events pulled from the input
  // Traced runs only:
  LayerArray layers{};        ///< per-layer self times of this run
  ProtocolSplit split;        ///< per-access protocol split
  std::uint64_t commits = 0;  ///< AttributionSink::on_commit calls
};

/// Replays `cell` once. `trace` is the cell's materialized input (null for
/// streamed cells). With `cost` the run goes through the wrappers `wrap`
/// selects, and Engine::run itself is the root `sim` span; without it the
/// run is bare.
CellRun run_cell(const Cell& cell, const dircc::ProgramTrace* trace,
                 const SpanCost* cost, Wrap wrap = {});

/// Replays the cell's input through a NullMemory and returns the wall time
/// of Engine::run in nanoseconds (event fetch plus engine alone).
std::int64_t run_null(const Cell& cell, const dircc::ProgramTrace* trace);

}  // namespace simbench
