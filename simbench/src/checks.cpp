#include "checks.hpp"

#include <sstream>

#include "common/ensure.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "sim/run_metrics.hpp"

namespace simbench {
namespace {

using dircc::MessageCounters;
using dircc::MsgClass;

std::string pct(std::uint64_t value, std::uint64_t baseline) {
  if (baseline == 0) {
    return "-";
  }
  return dircc::fmt(
      100.0 * static_cast<double>(value) / static_cast<double>(baseline), 1);
}

}  // namespace

std::string fingerprint(const CellOutputs& outputs) {
  // The RunResult metrics bridge registers every field of every stats
  // struct, so a counter added later is compared without changes here.
  dircc::obs::MetricsRegistry registry;
  dircc::register_metrics(registry, outputs.result);
  std::ostringstream out;
  registry.write_json(out);
  const dircc::StoreStats& d = outputs.directory;
  out << ";dir=" << d.lookups << ',' << d.hits << ',' << d.allocations << ','
      << d.replacements << ',' << outputs.live_entries
      << ";halted=" << outputs.halted << ";audits=" << outputs.audits
      << ";violations=" << outputs.violations
      << ";attrib=" << outputs.attrib_txns;
  return out.str();
}

std::string check_identities(const CellOutputs& outputs) {
  const dircc::ProtocolStats& p = outputs.result.protocol;
  std::ostringstream problems;
  const std::uint64_t committed =
      p.local_transactions + p.remote2_transactions + p.remote3_transactions;
  if (p.cache_hits + committed != p.accesses) {
    problems << "hits (" << p.cache_hits << ") + transactions (" << committed
             << ") != accesses (" << p.accesses << "); ";
  }
  const auto classes_sum = [](const MessageCounters& m) {
    return m.requests_with_writebacks() + m.get(MsgClass::kReply) +
           m.inv_plus_ack();
  };
  const MessageCounters total = outputs.result.total_messages();
  if (classes_sum(p.messages) != p.messages.total() ||
      classes_sum(total) != total.total()) {
    problems << "per-class message counts do not sum to the total; ";
  }
  if (p.chip_messages.total() > p.messages.total()) {
    problems << "more chip-crossing messages than messages; ";
  }
  return problems.str();
}

std::string render_fig07_10(const std::vector<dircc::RunResult>& results) {
  dircc::ensure(results.size() == 16, "Figure 7-10 needs 16 results");
  struct Panel {
    const char* figure;
    const char* app;
  };
  const Panel panels[] = {{"Figure 7", "LU"},
                          {"Figure 8", "DWF"},
                          {"Figure 9", "MP3D"},
                          {"Figure 10", "LocusRoute"}};
  const char* schemes[] = {"Dir32", "Dir3CV2", "Dir3B", "Dir3NB"};
  std::ostringstream out;
  for (std::size_t p = 0; p < 4; ++p) {
    const dircc::RunResult& baseline = results[p * 4];
    out << panels[p].figure << ": performance for " << panels[p].app
        << " (normalized to Dir32 = 100)\n\n";
    dircc::TextTable table;
    table.header({"scheme", "exec time", "requests+wb", "replies", "inv+ack",
                  "total msgs", "extraneous", "inval events", "mean invals"});
    for (std::size_t s = 0; s < 4; ++s) {
      const dircc::RunResult& result = results[p * 4 + s];
      const MessageCounters& m = result.protocol.messages;
      const MessageCounters& bm = baseline.protocol.messages;
      table.row({schemes[s], pct(result.exec_cycles, baseline.exec_cycles),
                 pct(m.requests_with_writebacks(),
                     bm.requests_with_writebacks()),
                 pct(m.get(MsgClass::kReply), bm.get(MsgClass::kReply)),
                 pct(m.inv_plus_ack(), bm.inv_plus_ack()),
                 pct(m.total(), bm.total()),
                 dircc::fmt_count(result.protocol.extraneous_invalidations),
                 dircc::fmt_count(result.protocol.inval_distribution.events()),
                 dircc::fmt(result.protocol.inval_distribution.mean(), 2)});
    }
    table.print(out);
    out << "\n";
  }
  return out.str();
}

}  // namespace simbench
