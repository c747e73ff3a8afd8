// Output checks: what a cell run must produce for the benchmark to count
// it as correct.
//
//  * Every simulated statistic repeats exactly across repetitions of a
//    cell and between its untraced and traced passes (fingerprint()).
//  * The accounting identities hold (check_identities()).
//  * Checked cells report zero invariant violations and are not halted.
//  * At the golden seed, paper_grid renders the Figure 7-10 tables exactly
//    as tests/golden/fig07_10_schemes.txt has them (render_fig07_10()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "directory/store.hpp"
#include "sim/engine.hpp"

namespace simbench {

/// The simulated outputs of one cell run.
struct CellOutputs {
  dircc::RunResult result;
  bool halted = false;
  /// Directory-store counters summed over every store of every level.
  dircc::StoreStats directory;
  std::uint64_t live_entries = 0;  ///< live directory entries at the end
  std::uint64_t audits = 0;        ///< invariant-checker audits (checked cells)
  std::uint64_t violations = 0;    ///< invariant violations (checked cells)
  std::uint64_t attrib_txns = 0;   ///< transactions the collector saw
};

/// Serializes every simulated statistic of `outputs`; two runs of one cell
/// must produce the same string.
std::string fingerprint(const CellOutputs& outputs);

/// Returns "" when the accounting identities hold, else what broke:
/// cache hits plus committed transactions equal accesses, and the
/// per-class message counts sum to the total.
std::string check_identities(const CellOutputs& outputs);

/// Renders the four Figure 7-10 tables from the 16 paper_grid results
/// (app-major: LU, DWF, MP3D, LocusRoute; schemes Dir32, Dir3CV2, Dir3B,
/// Dir3NB), byte for byte as bench/fig07_10_schemes prints them.
std::string render_fig07_10(const std::vector<dircc::RunResult>& results);

}  // namespace simbench
