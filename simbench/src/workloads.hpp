// The benchmark's workloads: fixed grids of simulation cells, each cell a
// machine configuration plus the input it replays. Every input is a pure
// function of the benchmark seed. README.md records why each workload
// exists and which layers it loads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/trace_cache.hpp"
#include "protocol/system.hpp"
#include "trace/event_source.hpp"

namespace simbench {

struct Cell {
  std::string key;      ///< "<workload>/<app>/<scheme>/<machine>"
  std::string app;
  std::string scheme;
  std::string machine;
  dircc::SystemConfig system;
  /// Materialized input, fetched through a harness::TraceCache. Unused when
  /// `stream` is set.
  dircc::harness::TraceSpec trace;
  /// Streamed input: each run pulls from a fresh source and nothing is
  /// materialized.
  std::function<std::unique_ptr<dircc::EventSource>()> stream;
  bool attribution = false;  ///< attach an obs/attrib Collector
  bool checked = false;      ///< attach an InvariantChecker (audits every
                             ///< access)

  bool streamed() const { return static_cast<bool>(stream); }
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
};

/// Names accepted by make_workload, in the order README.md lists them.
const std::vector<std::string>& workload_names();

/// Builds the named workload's cells from `seed`. Aborts on an unknown
/// name (callers validate against workload_names() first).
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The seed at which paper_grid must reproduce the golden Figure 7-10
/// tables.
inline constexpr std::uint64_t kGoldenSeed = 1990;

}  // namespace simbench
