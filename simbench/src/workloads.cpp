#include "workloads.hpp"

#include "check/fuzz.hpp"
#include "common/ensure.hpp"
#include "directory/format.hpp"
#include "harness/sweep.hpp"
#include "trace/datacenter.hpp"
#include "trace/generators.hpp"

namespace simbench {
namespace {

using dircc::AppKind;
using dircc::DatacenterKind;
using dircc::SchemeConfig;
using dircc::SystemConfig;

constexpr int kBlockSize = 16;

// paper_grid: the Figure 7-10 machine (Section 5 of the paper).
constexpr int kPaperProcs = 32;
constexpr std::uint64_t kPaperCacheLines = 1024;

// sparse_queued: every sparse level holds 1/16 of the cache lines it
// covers. At size factor 1 LU and MP3D never replace an entry, and at 1/4
// LU still does not at this scale.
constexpr double kSparseScale = 0.25;
constexpr std::uint64_t kFlatSparsePerHome = 64;   // 32 homes
constexpr int kChips = 4;
constexpr std::uint64_t kInterSparsePerHome = 64;  // 32 homes
constexpr std::uint64_t kIntraSparsePerChip = 512; // 8 clusters per chip

// datacenter_128: streaming traffic on a machine wider than 64 nodes.
constexpr int kWideProcs = 128;
constexpr std::uint64_t kClients = 1024;
constexpr double kDatacenterScale = 1.0;

// checked_fuzz: the fuzzer's machine (bench/fuzz_coherence defaults).
constexpr int kFuzzProcs = 16;
constexpr std::uint64_t kFuzzCacheLines = 16;
constexpr int kFuzzCacheAssoc = 2;
constexpr std::uint64_t kFuzzSparseEntries = 8;
constexpr int kFuzzSparseAssoc = 2;
constexpr int kFuzzTraces = 8;

SystemConfig flat_machine(int procs, std::uint64_t cache_lines, int assoc,
                          SchemeConfig scheme, std::uint64_t seed) {
  SystemConfig config;
  config.num_procs = procs;
  config.procs_per_cluster = 1;
  config.cache_lines_per_proc = cache_lines;
  config.cache_assoc = assoc;
  config.block_size = kBlockSize;
  config.scheme = scheme;
  config.seed = seed;
  return config;
}

std::string scheme_name(const SchemeConfig& scheme) {
  return dircc::make_format(scheme)->name();
}

/// The paper's 3-pointer schemes over `nodes`, by short name.
SchemeConfig limited(const std::string& kind, int nodes) {
  if (kind == "cv") return SchemeConfig::coarse(nodes, 3, 2);
  if (kind == "b") return SchemeConfig::broadcast(nodes, 3);
  if (kind == "nb") return SchemeConfig::no_broadcast(nodes, 3);
  dircc::ensure(kind == "full", "unknown scheme kind");
  return SchemeConfig::full(nodes);
}

void finish(Cell& cell, const std::string& workload) {
  cell.key = workload + "/" + cell.app + "/" + cell.scheme + "/" +
             cell.machine;
}

Workload paper_grid(std::uint64_t seed) {
  Workload workload{"paper_grid", {}};
  const AppKind apps[] = {AppKind::kLu, AppKind::kDwf, AppKind::kMp3d,
                          AppKind::kLocusRoute};
  for (const AppKind app : apps) {
    for (const char* kind : {"full", "cv", "b", "nb"}) {
      Cell cell;
      const SchemeConfig scheme = limited(kind, kPaperProcs);
      cell.app = dircc::app_name(app);
      cell.scheme = scheme_name(scheme);
      cell.machine = "flat";
      cell.system =
          flat_machine(kPaperProcs, kPaperCacheLines, 4, scheme, seed);
      cell.trace = dircc::harness::app_trace(app, kPaperProcs, kBlockSize,
                                             seed, 1.0);
      finish(cell, workload.name);
      workload.cells.push_back(std::move(cell));
    }
  }
  return workload;
}

Workload sparse_queued(std::uint64_t seed) {
  Workload workload{"sparse_queued", {}};
  for (const AppKind app : {AppKind::kLu, AppKind::kMp3d}) {
    for (const char* kind : {"cv", "nb"}) {
      for (const bool hier : {false, true}) {
        Cell cell;
        const SchemeConfig scheme = limited(kind, kPaperProcs);
        cell.app = dircc::app_name(app);
        cell.scheme = scheme_name(scheme);
        cell.system =
            flat_machine(kPaperProcs, kPaperCacheLines, 4, scheme, seed);
        cell.system.backend = dircc::BackendKind::kQueued;
        if (!hier) {
          cell.machine = "flat-sparse";
          cell.system.store.sparse = true;
          cell.system.store.sparse_entries = kFlatSparsePerHome;
          cell.system.store.sparse_assoc = 4;
        } else {
          // The cell's scheme runs at the inter-chip level over chips; each
          // chip keeps a sparse full map over its own clusters.
          cell.machine = "4chip-sparse";
          dircc::HierarchyConfig& h = cell.system.hierarchy;
          h.chips = kChips;
          h.inter = limited(kind, kChips);
          h.inter_store.sparse = true;
          h.inter_store.sparse_entries = kInterSparsePerHome;
          h.intra = SchemeConfig::full(kPaperProcs / kChips);
          h.intra_store.sparse = true;
          h.intra_store.sparse_entries = kIntraSparsePerChip;
        }
        cell.trace = dircc::harness::app_trace(app, kPaperProcs, kBlockSize,
                                               seed, kSparseScale);
        cell.attribution = true;
        finish(cell, workload.name);
        workload.cells.push_back(std::move(cell));
      }
    }
  }
  return workload;
}

Workload datacenter_128(std::uint64_t seed) {
  Workload workload{"datacenter_128", {}};
  for (const DatacenterKind kind :
       {DatacenterKind::kKv, DatacenterKind::kQueue, DatacenterKind::kOltp}) {
    for (const char* scheme_kind : {"full", "cv", "nb"}) {
      Cell cell;
      const SchemeConfig scheme = limited(scheme_kind, kWideProcs);
      cell.app = dircc::datacenter_name(kind);
      cell.scheme = scheme_name(scheme);
      cell.machine = "flat";
      cell.system = flat_machine(kWideProcs, kPaperCacheLines, 4, scheme, seed);
      cell.stream = [kind, seed] {
        return dircc::make_datacenter_source(kind, kWideProcs, kBlockSize,
                                             kClients, seed, kDatacenterScale);
      };
      finish(cell, workload.name);
      workload.cells.push_back(std::move(cell));
    }
  }
  return workload;
}

Workload checked_fuzz(std::uint64_t seed) {
  Workload workload{"checked_fuzz", {}};
  for (int t = 0; t < kFuzzTraces; ++t) {
    dircc::check::FuzzTraceConfig trace;
    trace.procs = kFuzzProcs;
    trace.block_size = kBlockSize;
    trace.pool_blocks = 192;
    trace.seed = dircc::harness::cell_seed(seed, "checked_fuzz/trace=" +
                                                     std::to_string(t));
    for (const char* kind : {"full", "cv", "b", "nb"}) {
      Cell cell;
      const SchemeConfig scheme = limited(kind, kFuzzProcs);
      cell.app = "fuzz" + std::to_string(t);
      cell.scheme = scheme_name(scheme);
      cell.machine = "sparse8";
      cell.system = flat_machine(kFuzzProcs, kFuzzCacheLines, kFuzzCacheAssoc,
                                 scheme, trace.seed);
      cell.system.store.sparse = true;
      cell.system.store.sparse_entries = kFuzzSparseEntries;
      cell.system.store.sparse_assoc = kFuzzSparseAssoc;
      // As in the fuzzer: the invariant checker, not the protocol's own
      // value check, is the failure detector.
      cell.system.validate = false;
      cell.trace = {dircc::check::fuzz_trace_key(trace), [trace] {
                      return dircc::check::generate_fuzz_trace(trace);
                    }};
      cell.checked = true;
      finish(cell, workload.name);
      workload.cells.push_back(std::move(cell));
    }
  }
  return workload;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_grid", "sparse_queued", "datacenter_128", "checked_fuzz"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_grid") return paper_grid(seed);
  if (name == "sparse_queued") return sparse_queued(seed);
  if (name == "datacenter_128") return datacenter_128(seed);
  dircc::ensure(name == "checked_fuzz", "unknown workload");
  return checked_fuzz(seed);
}

}  // namespace simbench
