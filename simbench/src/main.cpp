// simbench: the repository benchmark (see README.md).
//
//   simbench --workload NAME --seed N --seconds S --trace 0|1
//            [--spans-out FILE]
//
// Runs one workload's cells serially on one thread. It first sets the
// workload up several times (trace build plus machine construction) and
// keeps the median, then replays the cells round-robin for S seconds.
//
//  --trace 0  untraced passes only; prints the end-to-end metrics.
//  --trace 1  alternates an untraced, a traced and a null-memory run of
//             every cell for S seconds; prints the per-layer metrics and a
//             per-cell host-time table, and writes every span aggregate to
//             --spans-out when given.
//
// Every run of every cell is checked (checks.hpp). The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "runner.hpp"

namespace simbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string spans_out;
};

/// Parses the command line; throws CliError (exit 2 through run_cli) on
/// anything malformed.
Options parse_options(int argc, char** argv) {
  dircc::CliParser cli;
  cli.add_option("workload", "", "paper_grid, sparse_queued, datacenter_128 "
                                 "or checked_fuzz");
  cli.add_option("seed", "1", "seed of every generated input");
  cli.add_option("seconds", "10", "length of the timed loop");
  cli.add_option("trace", "0", "0 = end-to-end metrics, 1 = traced pass");
  cli.add_option("spans-out", "", "traced pass: write the spans here");
  if (!cli.parse(argc, argv) || cli.help_requested()) {
    throw dircc::CliError(cli.error() + "\n" + cli.usage(argv[0]));
  }
  Options options;
  options.workload = cli.get("workload");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.seconds = cli.get_double("seconds");
  const std::int64_t trace = cli.get_int("trace");
  options.traced = trace == 1;
  options.spans_out = cli.get("spans-out");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw dircc::CliError("unknown --workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0) || (trace != 0 && trace != 1)) {
    throw dircc::CliError("--seconds must be positive and --trace 0 or 1");
  }
  return options;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counts checked cell runs and keeps the first few reasons for failures.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void record(const std::string& cell, const std::string& problems) {
    ++attempted;
    if (problems.empty()) {
      return;
    }
    ++failed;
    if (reasons.size() < 8) {
      reasons.push_back(cell + ": " + problems);
    }
  }
  /// A failure not tied to one cell run (golden table, span accounting).
  void fail(const std::string& reason) {
    ++attempted;
    ++failed;
    reasons.push_back(reason);
  }
};

/// Checks one run of `cell`; `first_print` holds the cell's first
/// fingerprint (set on the first call).
void check_run(const Cell& cell, const CellRun& run, std::string& first_print,
               Verdict& verdict) {
  std::string problems = check_identities(run.outputs);
  if (cell.checked && (run.outputs.violations > 0 || run.outputs.halted)) {
    problems += "invariant checker reported " +
                std::to_string(run.outputs.violations) + " violations; ";
  }
  const bool traced = run.split.hits + run.split.txns > 0;
  if (traced && run.split.ir_network_msgs !=
                    run.outputs.result.protocol.messages.total()) {
    problems += "Transaction IR network hops do not sum to the protocol's "
                "message count; ";
  }
  const std::string print = fingerprint(run.outputs);
  if (first_print.empty()) {
    first_print = print;
  } else if (print != first_print) {
    problems += "simulated statistics differ from the cell's first run; ";
  }
  verdict.record(cell.key, problems);
}

struct Setup {
  std::unique_ptr<Inputs> inputs;
  double setup_s = 0.0;        ///< median trace build plus construction
  double build_s = 0.0;        ///< median trace build alone
  int reps = 0;
};

/// Sets the workload up at least kMinReps times and at most kMaxReps
/// times (stopping early once `budget_s` is spent) and keeps the median.
Setup run_setup(const Workload& workload, double budget_s,
                std::vector<CoarseSpan>* spans) {
  constexpr int kMinReps = 5;
  constexpr int kMaxReps = 101;
  Setup setup;
  std::vector<double> totals;
  std::vector<double> builds;
  const std::int64_t begin = now_ns();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    setup.inputs.reset();  // one set of inputs resident at a time
    const std::int64_t start = now_ns();
    setup.inputs = prepare_inputs(workload, spans);
    for (const Cell& cell : workload.cells) {
      build_machine(cell);
    }
    const std::int64_t stop = now_ns();
    totals.push_back(static_cast<double>(stop - start) * 1e-9);
    builds.push_back(static_cast<double>(setup.inputs->build_ns) * 1e-9);
    ++setup.reps;
    if (rep + 1 >= kMinReps &&
        static_cast<double>(stop - begin) * 1e-9 >= budget_s) {
      break;
    }
  }
  setup.setup_s = median(totals);
  setup.build_s = median(builds);
  return setup;
}

/// The host-speed reference: a fixed chain of dependent loads over a 4 MiB
/// table, timed in nanoseconds. It is the benchmark's own code, so it is
/// the same on every commit; on a shared host it slows down and speeds up
/// with the simulator (other tenants, frequency), which is what lets
/// accesses_per_s divide that drift out.
double reference_ns() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> values(1u << 20);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<std::uint32_t>((i * 2654435761u) >> 7);
    }
    return values;
  }();
  const std::int64_t start = now_ns();
  std::uint32_t x = 1;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    x = table[(x ^ i) & (table.size() - 1)] + ((x * 2654435761u) >> 13);
    if ((x & 1u) != 0) {
      x ^= 0x9e3779b9u;
    }
  }
  asm volatile("" : : "r"(x));
  return static_cast<double>(now_ns() - start);
}

/// The reference's median time on the 4-core x86-64 host the bounds were
/// set on: an untraced run reports throughput as if the reference took
/// this long.
constexpr double kReferenceNs = 8.0e6;

/// Per-cell measurements gathered over the timed loop.
struct CellSamples {
  std::string first_print;            ///< fingerprint of the first run
  std::vector<double> bare_ns;        ///< untraced Engine::run times
  /// bare_ns scaled by kReferenceNs over the reference timed around it.
  std::vector<double> scaled_ns;
  std::vector<double> ref_ns;         ///< reference times, two per run
  std::vector<double> traced_ns;      ///< traced Engine::run times
  std::vector<double> null_ns;        ///< null-memory Engine::run times
  CellOutputs first;                  ///< outputs of the first run
  std::uint64_t events = 0;           ///< events pulled per run
  // Traced runs, summed over repetitions:
  LayerArray layers{};
  ProtocolSplit split;
  std::uint64_t commits = 0;
  std::uint64_t traced_runs = 0;
};

/// Replays the cells round-robin until `seconds` have passed and every
/// cell ran at least once; traced runs add a traced and a null run per
/// cell turn.
std::vector<CellSamples> measure(const Workload& workload,
                                 const Inputs& inputs, double seconds,
                                 const SpanCost* cost, Verdict& verdict,
                                 std::vector<CoarseSpan>* spans) {
  const std::size_t n = workload.cells.size();
  std::vector<CellSamples> samples(n);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t k = 0;; k = (k + 1) % n) {
    const Cell& cell = workload.cells[k];
    const dircc::ProgramTrace* trace = inputs.traces[k].get();
    CellSamples& s = samples[k];
    const std::int64_t cell_start = now_ns();
    const double before = reference_ns();
    CellRun bare = run_cell(cell, trace, nullptr);
    const double after = reference_ns();
    check_run(cell, bare, s.first_print, verdict);
    if (s.bare_ns.empty()) {
      s.first = bare.outputs;
      s.events = bare.events;
    }
    s.bare_ns.push_back(static_cast<double>(bare.sim_ns));
    s.scaled_ns.push_back(static_cast<double>(bare.sim_ns) * kReferenceNs /
                          (0.5 * (before + after)));
    s.ref_ns.push_back(before);
    s.ref_ns.push_back(after);
    if (cost != nullptr) {
      CellRun traced = run_cell(cell, trace, cost);
      check_run(cell, traced, s.first_print, verdict);
      if (spans != nullptr) {
        spans->push_back({cell.key, "sim.run", traced.start_ns, traced.sim_ns});
      }
      s.traced_ns.push_back(static_cast<double>(traced.sim_ns));
      merge(s.layers, traced.layers);
      s.split.merge(traced.split);
      s.commits += traced.commits;
      ++s.traced_runs;
      s.null_ns.push_back(static_cast<double>(run_null(cell, trace)));
      if (spans != nullptr) {
        spans->push_back({cell.key, "cell", cell_start, now_ns() - cell_start});
      }
    }
    if (k + 1 == n && now_ns() >= deadline) {
      break;
    }
  }
  return samples;
}

/// paper_grid at the golden seed: the Figure 7-10 tables must match the
/// repository's golden file byte for byte.
void check_golden(const std::vector<CellSamples>& samples, Verdict& verdict) {
  std::vector<dircc::RunResult> results;
  for (const CellSamples& s : samples) {
    results.push_back(s.first.result);
  }
  std::ifstream in(SIMBENCH_GOLDEN);
  std::stringstream golden;
  golden << in.rdbuf();
  if (!in || golden.str() != render_fig07_10(results)) {
    verdict.fail("paper_grid does not reproduce the golden Figure 7-10 "
                 "tables at seed 1990");
    return;
  }
  std::cout << "golden Figure 7-10 tables reproduced (seed "
            << kGoldenSeed << ")\n";
}

double sum_medians(const std::vector<CellSamples>& samples,
                   std::vector<double> CellSamples::*field) {
  double total = 0.0;
  for (const CellSamples& s : samples) {
    total += median(s.*field);
  }
  return total;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<Metric> end_to_end(const Setup& setup,
                               const std::vector<CellSamples>& samples) {
  double accesses = 0.0;
  double messages = 0.0;
  double cycles = 0.0;
  for (const CellSamples& s : samples) {
    accesses += static_cast<double>(s.first.result.protocol.accesses);
    messages += static_cast<double>(s.first.result.total_messages().total());
    cycles += static_cast<double>(s.first.result.exec_cycles);
  }
  // Host time scaled to the reference speed; the raw figure is printed.
  const double scaled_s =
      sum_medians(samples, &CellSamples::scaled_ns) * 1e-9;
  const double raw_s = sum_medians(samples, &CellSamples::bare_ns) * 1e-9;
  std::vector<double> reference;
  for (const CellSamples& s : samples) {
    reference.insert(reference.end(), s.ref_ns.begin(), s.ref_ns.end());
  }
  std::cout << "unscaled accesses_per_s " << number(ratio(accesses, raw_s))
            << ", reference median " << number(median(reference) * 1e-6)
            << " ms (nominal " << number(kReferenceNs * 1e-6) << ")\n";
  return {
      {"accesses_per_s", ratio(accesses, scaled_s), "1/s"},
      {"setup_s", setup.setup_s, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"msgs_per_kaccess", 1000.0 * ratio(messages, accesses),
       "msgs/kaccess"},
      {"sim_mcycles", cycles * 1e-6, "Mcycles"},
  };
}

const LayerTotals& layer(const LayerArray& layers, Layer which) {
  return layers[static_cast<std::size_t>(which)];
}

double total(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) {
    sum += value;
  }
  return sum;
}

/// What the timer itself cost inside a cell's traced runs: every non-root
/// span in full plus the inner part of each root (Engine::run) span.
double timer_ns(const CellSamples& s, const SpanCost& cost) {
  const auto roots = static_cast<double>(s.traced_runs);
  return (static_cast<double>(total_calls(s.layers)) - roots) * cost.total_ns +
         roots * cost.inner_ns;
}

/// Per-layer metrics of the traced pass. Time sums run over every traced
/// repetition; counts come from one run of each cell.
std::vector<Metric> per_layer(const Setup& setup, const SpanCost& cost,
                              const std::vector<CellSamples>& samples,
                              Verdict& verdict) {
  LayerArray layers{};
  ProtocolSplit split;
  double run_ns = 0.0;    // traced Engine::run, every repetition
  double events = 0.0;    // events pulled, every traced repetition
  double bench_ns = 0.0;  // timer cost, every traced repetition
  std::uint64_t commits = 0;
  std::uint64_t attrib_calls = 0;
  dircc::ProtocolStats proto;
  dircc::SyncStats sync;
  dircc::CacheStats cache;
  dircc::StoreStats dir;
  std::uint64_t live = 0;
  std::uint64_t audits = 0;
  std::uint64_t violations = 0;
  std::uint64_t pass_events = 0;
  double null_ns = 0.0;
  for (const CellSamples& s : samples) {
    merge(layers, s.layers);
    split.merge(s.split);
    commits += s.commits;
    attrib_calls += layer(s.layers, Layer::kObs).calls / s.traced_runs;
    run_ns += total(s.traced_ns);
    events += static_cast<double>(s.traced_runs * s.events);
    bench_ns += timer_ns(s, cost);
    null_ns += median(s.null_ns);
    pass_events += s.events;

    const dircc::RunResult& r = s.first.result;
    const dircc::ProtocolStats& p = r.protocol;
    proto.messages += p.messages;
    proto.chip_messages += p.chip_messages;
    proto.inval_distribution.merge(p.inval_distribution);
    proto.accesses += p.accesses;
    proto.cache_hits += p.cache_hits;
    proto.extraneous_invalidations += p.extraneous_invalidations;
    proto.nb_read_displacements += p.nb_read_displacements;
    proto.sparse_replacement_invals += p.sparse_replacement_invals;
    proto.local_transactions += p.local_transactions;
    proto.remote2_transactions += p.remote2_transactions;
    proto.remote3_transactions += p.remote3_transactions;
    proto.link_wait_cycles += p.link_wait_cycles;
    proto.home_wait_cycles += p.home_wait_cycles;
    sync.lock_acquires += r.sync.lock_acquires;
    sync.lock_contended += r.sync.lock_contended;
    sync.barrier_episodes += r.sync.barrier_episodes;
    cache.read_misses += r.cache.read_misses;
    cache.write_misses += r.cache.write_misses;
    cache.write_upgrades += r.cache.write_upgrades;
    cache.evictions_dirty += r.cache.evictions_dirty;
    cache.invalidations_received += r.cache.invalidations_received;
    dir.lookups += s.first.directory.lookups;
    dir.hits += s.first.directory.hits;
    dir.allocations += s.first.directory.allocations;
    dir.replacements += s.first.directory.replacements;
    live += s.first.live_entries;
    audits += s.first.audits;
    violations += s.first.violations;
  }

  const auto self = [&](Layer which) { return layer(layers, which).self_ns; };
  double accounted = bench_ns;
  for (const LayerTotals& totals : layers) {
    accounted += totals.self_ns;
  }
  if (std::abs(accounted - run_ns) > 1e-3 * run_ns) {
    verdict.fail("layer self times sum to " + number(accounted) +
                 " ns but the traced sim.run spans total " + number(run_ns) +
                 " ns");
  }
  const double txns = static_cast<double>(proto.local_transactions +
                                          proto.remote2_transactions +
                                          proto.remote3_transactions);
  const double bare_ns = sum_medians(samples, &CellSamples::bare_ns);
  const double traced_ns = sum_medians(samples, &CellSamples::traced_ns);
  const LayerTotals& protocol = layer(layers, Layer::kProtocol);
  const LayerTotals& check = layer(layers, Layer::kCheck);
  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  const double invals =
      count(proto.messages.get(dircc::MsgClass::kInvalidation));
  return {
      {"trace.build_s", setup.build_s, "s"},
      {"trace.bytes_mib",
       static_cast<double>(setup.inputs->trace_bytes) / (1024.0 * 1024.0),
       "MiB"},
      {"trace.next_ns_per_event", ratio(self(Layer::kTrace), events), "ns"},
      {"trace.events", count(pass_events), "count"},
      {"trace.self_share", ratio(self(Layer::kTrace), run_ns), "frac"},
      {"sim.self_ns_per_event", ratio(self(Layer::kSim), events), "ns"},
      {"sim.null_ns_per_event", ratio(null_ns, count(pass_events)), "ns"},
      {"sim.self_share", ratio(self(Layer::kSim), run_ns), "frac"},
      {"sim.lock_acquires", count(sync.lock_acquires), "count"},
      {"sim.lock_contended", count(sync.lock_contended), "count"},
      {"sim.barrier_episodes", count(sync.barrier_episodes), "count"},
      {"protocol.hit_ns", ratio(split.hit_self_ns, count(split.hits)), "ns"},
      {"protocol.txn_ns", ratio(split.txn_self_ns, count(split.txns)), "ns"},
      {"protocol.access_ns_p50", protocol.hist.percentile(50.0), "ns"},
      {"protocol.access_ns_p99", protocol.hist.percentile(99.0), "ns"},
      {"protocol.access_samples", count(protocol.hist.count()), "count"},
      {"protocol.txns", txns, "count"},
      {"protocol.hops_per_txn", ratio(count(split.hops), count(split.txns)),
       "count"},
      {"protocol.remote3_share", ratio(count(proto.remote3_transactions), txns),
       "frac"},
      {"protocol.self_share", ratio(protocol.self_ns, run_ns), "frac"},
      {"cache.hit_ratio", ratio(count(proto.cache_hits), count(proto.accesses)),
       "frac"},
      {"cache.read_misses", count(cache.read_misses), "count"},
      {"cache.write_misses", count(cache.write_misses), "count"},
      {"cache.upgrades", count(cache.write_upgrades), "count"},
      {"cache.evictions_dirty", count(cache.evictions_dirty), "count"},
      {"cache.invals_received", count(cache.invalidations_received), "count"},
      {"directory.lookups", count(dir.lookups), "count"},
      {"directory.hit_ratio", ratio(count(dir.hits), count(dir.lookups)),
       "frac"},
      {"directory.allocations", count(dir.allocations), "count"},
      {"directory.replacements", count(dir.replacements), "count"},
      {"directory.repl_invals", count(proto.sparse_replacement_invals),
       "count"},
      {"directory.inval_mean", proto.inval_distribution.mean(), "count"},
      {"directory.extraneous_ratio",
       ratio(count(proto.extraneous_invalidations), invals), "frac"},
      {"directory.nb_displacements", count(proto.nb_read_displacements),
       "count"},
      {"directory.live_entries", count(live), "count"},
      {"network.msgs_requests_wb",
       count(proto.messages.requests_with_writebacks()), "count"},
      {"network.msgs_replies",
       count(proto.messages.get(dircc::MsgClass::kReply)), "count"},
      {"network.msgs_inv_ack", count(proto.messages.inv_plus_ack()), "count"},
      {"network.link_wait_cycles", count(proto.link_wait_cycles), "cycles"},
      {"network.home_wait_cycles", count(proto.home_wait_cycles), "cycles"},
      {"network.chip_msgs", count(proto.chip_messages.total()), "count"},
      {"obs.attrib_calls", count(attrib_calls), "count"},
      {"obs.attrib_ns_per_txn", ratio(self(Layer::kObs), count(commits)),
       "ns"},
      {"obs.self_share", ratio(self(Layer::kObs), run_ns), "frac"},
      {"check.audits", count(audits), "count"},
      {"check.on_access_ns", ratio(check.self_ns, count(check.calls)), "ns"},
      {"check.violations", count(violations), "count"},
      {"check.self_share", ratio(check.self_ns, run_ns), "frac"},
      {"bench.trace_overhead_frac", ratio(traced_ns, bare_ns) - 1.0, "frac"},
      {"bench.span_cost_ns", cost.total_ns, "ns"},
      {"bench.self_share", ratio(bench_ns, run_ns), "frac"},
  };
}

/// Host time per cell: untraced and traced ns per access, the protocol's
/// self time per cache hit and per transaction, and each layer's share of
/// the traced Engine::run time.
void print_cell_table(const Workload& workload,
                      const std::vector<CellSamples>& samples,
                      const SpanCost& cost) {
  std::printf("%-40s %9s %5s %8s %7s %7s %6s %6s %5s %5s %5s %5s %5s %5s\n",
              "cell (ns per access, % of traced time)", "accesses", "hit%",
              "dir_repl", "bare", "traced", "hit_ns", "txn_ns", "trace",
              "sim", "proto", "obs", "check", "bench");
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const CellSamples& s = samples[k];
    const double accesses =
        static_cast<double>(s.first.result.protocol.accesses);
    const double run_ns = total(s.traced_ns);
    const auto share = [&](Layer which) {
      return 100.0 * ratio(layer(s.layers, which).self_ns, run_ns);
    };
    std::printf(
        "%-40s %9.0f %5.1f %8llu %7.1f %7.1f %6.1f %6.1f %5.1f %5.1f %5.1f "
        "%5.1f %5.1f %5.1f\n",
        workload.cells[k].key.c_str(), accesses,
        100.0 * ratio(static_cast<double>(s.first.result.protocol.cache_hits),
                      accesses),
        static_cast<unsigned long long>(s.first.directory.replacements),
        ratio(median(s.bare_ns), accesses),
        ratio(median(s.traced_ns), accesses),
        ratio(s.split.hit_self_ns, static_cast<double>(s.split.hits)),
        ratio(s.split.txn_self_ns, static_cast<double>(s.split.txns)),
        share(Layer::kTrace), share(Layer::kSim), share(Layer::kProtocol),
        share(Layer::kObs), share(Layer::kCheck),
        100.0 * ratio(timer_ns(s, cost), run_ns));
  }
}

/// Writes the traced pass's spans: the coarse spans individually, the
/// per-(cell, layer) aggregates as count, self-time sum and percentiles.
void write_spans(const std::string& path, const Options& options,
                 const Workload& workload, const SpanCost& cost,
                 const std::vector<CellSamples>& samples,
                 const std::vector<CoarseSpan>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "simbench: cannot write " << path << "\n";
    return;
  }
  dircc::JsonWriter json(out);
  json.begin_object();
  json.field("workload", options.workload);
  json.field("seed", options.seed);
  json.field("span_inner_ns", cost.inner_ns);
  json.field("span_total_ns", cost.total_ns);
  json.key("spans");
  json.begin_array();
  for (const CoarseSpan& span : spans) {
    json.begin_object();
    json.field("cell", span.cell);
    json.field("name", span.name);
    json.field("start_ns", static_cast<std::int64_t>(span.start_ns));
    json.field("duration_ns", static_cast<std::int64_t>(span.duration_ns));
    json.end_object();
  }
  json.end_array();
  json.key("layers");
  json.begin_array();
  for (std::size_t k = 0; k < samples.size(); ++k) {
    for (int l = 0; l < kNumLayers; ++l) {
      const LayerTotals& totals =
          samples[k].layers[static_cast<std::size_t>(l)];
      if (totals.calls == 0) {
        continue;
      }
      json.begin_object();
      json.field("cell", workload.cells[k].key);
      json.field("layer", layer_name(static_cast<Layer>(l)));
      json.field("runs", samples[k].traced_runs);
      json.field("calls", totals.calls);
      json.field("self_ns", totals.self_ns);
      json.field("p50_ns", totals.hist.percentile(50.0));
      json.field("p99_ns", totals.hist.percentile(99.0));
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  out << "\n";
}

int run(const Options& options) {
  const Workload workload = make_workload(options.workload, options.seed);
  Verdict verdict;
  std::vector<CoarseSpan> spans;
  std::vector<CoarseSpan>* span_log = options.traced ? &spans : nullptr;

  const Setup setup = run_setup(workload, 0.1 * options.seconds, span_log);
  std::cout << "workload " << workload.name << ": " << workload.cells.size()
            << " cells, seed " << options.seed << ", setup x" << setup.reps
            << "\n";

  SpanCost cost;
  if (options.traced) {
    cost = calibrate_span_cost();
  }
  const std::vector<CellSamples> samples =
      measure(workload, *setup.inputs, options.seconds,
              options.traced ? &cost : nullptr, verdict, span_log);
  if (workload.name == "paper_grid" && options.seed == kGoldenSeed) {
    check_golden(samples, verdict);
  }

  std::vector<Metric> metrics;
  if (options.traced) {
    print_cell_table(workload, samples, cost);
    metrics = per_layer(setup, cost, samples, verdict);
    if (!options.spans_out.empty()) {
      write_spans(options.spans_out, options, workload, cost, samples, spans);
    }
  } else {
    metrics = end_to_end(setup, samples);
  }

  std::cout << "runs per cell: " << samples.front().bare_ns.size()
            << ", failed_frac " << number(ratio(
                   static_cast<double>(verdict.failed),
                   static_cast<double>(verdict.attempted)))
            << "\n";
  for (const std::string& reason : verdict.reasons) {
    std::cout << "FAILED " << reason << "\n";
  }
  for (const Metric& metric : metrics) {
    std::cout << metric.name << " " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  std::ostringstream line;
  line << "{\"correct\": " << (verdict.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << verdict.attempted
       << ", \"failed\": " << verdict.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  return dircc::run_cli(
      [&] { return simbench::run(simbench::parse_options(argc, argv)); });
}
