#include "runner.hpp"

#include <optional>
#include <unordered_set>

#include "adapters.hpp"

namespace simbench {
namespace {

using dircc::EventSource;

std::unique_ptr<EventSource> open_input(const Cell& cell,
                                        const dircc::ProgramTrace* trace) {
  if (cell.streamed()) {
    return cell.stream();
  }
  dircc::ensure(trace != nullptr, "materialized cell without its trace");
  return std::make_unique<dircc::MaterializedSource>(*trace);
}

void add(dircc::StoreStats& into, const dircc::StoreStats& stats) {
  into.lookups += stats.lookups;
  into.hits += stats.hits;
  into.allocations += stats.allocations;
  into.replacements += stats.replacements;
}

/// Reads the outputs every run reports off the finished machine.
CellOutputs collect(const Machine& machine, const EngineRun& run) {
  CellOutputs outputs;
  outputs.result = run.result;
  outputs.halted = run.halted;
  const dircc::CoherenceSystem& system = *machine.system;
  for (int home = 0; home < system.config().num_clusters(); ++home) {
    const dircc::DirectoryStore& store =
        system.directory(static_cast<dircc::NodeId>(home));
    add(outputs.directory, store.stats());
    outputs.live_entries += store.live_entries();
  }
  if (system.hierarchical()) {
    for (int chip = 0; chip < system.chips(); ++chip) {
      const dircc::DirectoryStore& store = system.intra_directory(chip);
      add(outputs.directory, store.stats());
      outputs.live_entries += store.live_entries();
    }
  }
  if (machine.checker != nullptr) {
    const dircc::check::CheckReport& report =
        machine.checker->finish(run.halted);
    outputs.audits = report.audits;
    outputs.violations =
        report.violations.size() + report.violations_suppressed;
  }
  if (machine.collector != nullptr) {
    outputs.attrib_txns = machine.collector->transactions();
  }
  return outputs;
}

}  // namespace

std::unique_ptr<Inputs> prepare_inputs(const Workload& workload,
                                       std::vector<CoarseSpan>* spans) {
  auto inputs = std::make_unique<Inputs>();
  std::unordered_set<const dircc::ProgramTrace*> distinct;
  for (const Cell& cell : workload.cells) {
    if (cell.streamed()) {
      inputs->traces.push_back(nullptr);
      continue;
    }
    const std::size_t before = inputs->cache.size();
    const std::int64_t start = now_ns();
    inputs->traces.push_back(inputs->cache.get(cell.trace));
    const std::int64_t stop = now_ns();
    inputs->build_ns += stop - start;
    if (spans != nullptr && inputs->cache.size() != before) {
      spans->push_back({cell.key, "trace.build", start, stop - start});
    }
    const dircc::ProgramTrace* trace = inputs->traces.back().get();
    if (distinct.insert(trace).second) {
      for (const auto& stream : trace->per_proc) {
        inputs->trace_bytes += stream.capacity() * sizeof(dircc::TraceEvent);
      }
    }
  }
  return inputs;
}

Machine build_machine(const Cell& cell) {
  Machine machine;
  machine.system = std::make_unique<dircc::CoherenceSystem>(cell.system);
  if (cell.attribution) {
    machine.collector = std::make_unique<dircc::obs::attrib::Collector>();
  }
  if (cell.checked) {
    dircc::check::CheckConfig config;
    config.audit_interval = 0;  // audit after every access
    machine.checker =
        std::make_unique<dircc::check::InvariantChecker>(*machine.system,
                                                         config);
  }
  return machine;
}

CellRun run_cell(const Cell& cell, const dircc::ProgramTrace* trace,
                 const SpanCost* cost, Wrap wrap) {
  Machine machine = build_machine(cell);
  const std::unique_ptr<EventSource> input = open_input(cell, trace);
  CellRun run;
  EngineRun engine_run;
  if (cost == nullptr) {
    attach_attribution(*machine.system, machine.collector.get());
    run.start_ns = now_ns();
    engine_run = run_engine(*machine.system, *input, machine.checker.get());
    run.sim_ns = now_ns() - run.start_ns;
  } else {
    Tracer tracer(*cost, ns_per_tick());
    TimedSource source(*input, tracer);
    TimedMemory memory(*machine.system, tracer);
    std::optional<TimedSink> sink;
    std::optional<TimedObserver> observer;
    dircc::AttributionSink* attrib = machine.collector.get();
    if (attrib != nullptr && wrap.sink) {
      attrib = &sink.emplace(*machine.collector, tracer);
    }
    attach_attribution(*machine.system, attrib);
    dircc::check::AccessObserver* check = machine.checker.get();
    if (check != nullptr && wrap.observer) {
      check = &observer.emplace(*machine.checker, tracer);
    }
    EventSource& events = wrap.source ? static_cast<EventSource&>(source)
                                      : *input;
    dircc::MemorySystem& mem =
        wrap.memory ? static_cast<dircc::MemorySystem&>(memory)
                    : *machine.system;
    run.start_ns = now_ns();
    const std::int64_t start = ticks();
    tracer.begin_at(Layer::kSim, start);
    engine_run = run_engine(mem, events, check);
    const std::int64_t stop = ticks();
    tracer.end_at(stop);
    run.sim_ns = static_cast<std::int64_t>(
        static_cast<double>(stop - start) * ns_per_tick());
    run.layers = tracer.all();
    run.split = memory.split();
    run.commits = sink ? sink->commits() : 0;
  }
  run.events = input->events_pulled();
  run.outputs = collect(machine, engine_run);
  return run;
}

std::int64_t run_null(const Cell& cell, const dircc::ProgramTrace* trace) {
  NullMemory memory(cell.system.num_procs, cell.system.block_size);
  const std::unique_ptr<EventSource> input = open_input(cell, trace);
  const std::int64_t start = now_ns();
  run_engine(memory, *input, nullptr);
  return now_ns() - start;
}

}  // namespace simbench
