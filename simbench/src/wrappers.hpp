// Forwarding wrappers that time calls into the simulator's public
// interfaces. Each one implements the same interface as the object it
// wraps, forwards every call unchanged and opens a span (layers.hpp)
// around the calls that do a layer's work. None of them changes what is
// simulated: a run through the wrappers produces the same RunResult as a
// bare run (tests/test_simbench.cpp checks this per wrapper).
#pragma once

#include <cstdint>

#include "check/api.hpp"
#include "layers.hpp"
#include "protocol/latency_backend.hpp"
#include "protocol/memory_system.hpp"
#include "protocol/system.hpp"
#include "trace/event_source.hpp"

namespace simbench {

/// `trace` layer: EventSource::next.
class TimedSource final : public dircc::EventSource {
 public:
  TimedSource(dircc::EventSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  const std::string& app_name() const override { return inner_.app_name(); }
  int num_procs() const override { return inner_.num_procs(); }
  int block_size() const override { return inner_.block_size(); }

  bool next(dircc::ProcId proc, dircc::TraceEvent& ev) override {
    tracer_.begin(Layer::kTrace);
    const bool got = inner_.next(proc, ev);
    tracer_.end();
    return got;
  }

  std::uint64_t events_pulled() const override {
    return inner_.events_pulled();
  }

 private:
  dircc::EventSource& inner_;
  Tracer& tracer_;
};

/// Per-access split of the `protocol` layer.
struct ProtocolSplit {
  std::uint64_t hits = 0;
  std::uint64_t txns = 0;
  double hit_self_ns = 0.0;
  double txn_self_ns = 0.0;
  std::uint64_t hops = 0;          ///< Transaction IR hops, all transactions
  std::uint64_t ir_network_msgs = 0;  ///< IR hops that crossed the network

  void merge(const ProtocolSplit& other) {
    hits += other.hits;
    txns += other.txns;
    hit_self_ns += other.hit_self_ns;
    txn_self_ns += other.txn_self_ns;
    hops += other.hops;
    ir_network_msgs += other.ir_network_msgs;
  }
};

/// `protocol` layer: MemorySystem::access on a CoherenceSystem. After each
/// access it reads the public stats and the committed Transaction IR to
/// tell cache hits from transactions and to count hops.
class TimedMemory final : public dircc::MemorySystem {
 public:
  TimedMemory(dircc::CoherenceSystem& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  dircc::Cycle access(dircc::ProcId proc, dircc::BlockAddr block,
                      bool is_write, dircc::Cycle now) override {
    const std::uint64_t hits_before = inner_.stats().cache_hits;
    tracer_.begin(Layer::kProtocol);
    const dircc::Cycle latency = inner_.access(proc, block, is_write, now);
    const double self = tracer_.end();
    if (inner_.stats().cache_hits != hits_before) {
      ++split_.hits;
      split_.hit_self_ns += self;
    } else {
      ++split_.txns;
      split_.txn_self_ns += self;
    }
    const dircc::Transaction& txn = inner_.last_transaction();
    if (txn.active()) {
      split_.hops += txn.hops.size();
      split_.ir_network_msgs +=
          static_cast<std::uint64_t>(txn.network_messages());
    }
    return latency;
  }
  using MemorySystem::access;

  int num_procs() const override { return inner_.num_procs(); }
  int block_size() const override { return inner_.block_size(); }
  dircc::NodeId cluster_of(dircc::ProcId proc) const override {
    return inner_.cluster_of(proc);
  }
  const dircc::ProtocolStats& stats() const override { return inner_.stats(); }
  dircc::CacheStats aggregate_cache_stats() const override {
    return inner_.aggregate_cache_stats();
  }
  void attach_recorder(dircc::obs::TraceRecorder* recorder) override {
    inner_.attach_recorder(recorder);
  }
  void attach_attribution(dircc::AttributionSink* sink) override {
    inner_.attach_attribution(sink);
  }

  const ProtocolSplit& split() const { return split_; }

 private:
  dircc::CoherenceSystem& inner_;
  Tracer& tracer_;
  ProtocolSplit split_;
};

/// `check` layer: AccessObserver::on_access (the invariant checker).
class TimedObserver final : public dircc::check::AccessObserver {
 public:
  TimedObserver(dircc::check::AccessObserver& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_access(dircc::ProcId proc, dircc::BlockAddr block, bool is_write,
                 dircc::Cycle now) override {
    tracer_.begin(Layer::kCheck);
    inner_.on_access(proc, block, is_write, now);
    tracer_.end();
  }
  bool halt_requested() const override { return inner_.halt_requested(); }

 private:
  dircc::check::AccessObserver& inner_;
  Tracer& tracer_;
};

/// `obs` layer: every AttributionSink callback (the attribution collector).
class TimedSink final : public dircc::AttributionSink {
 public:
  TimedSink(dircc::AttributionSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void bind(const dircc::Topology& mesh) override { inner_.bind(mesh); }
  void on_hop(const dircc::Transaction& txn,
              const dircc::HopTiming& timing) override {
    tracer_.begin(Layer::kObs);
    inner_.on_hop(txn, timing);
    tracer_.end();
  }
  void on_link(dircc::LinkId link, dircc::Cycle wait, dircc::Cycle busy_from,
               dircc::Cycle busy_until) override {
    tracer_.begin(Layer::kObs);
    inner_.on_link(link, wait, busy_from, busy_until);
    tracer_.end();
  }
  void on_home(dircc::NodeId home, dircc::Cycle wait, dircc::Cycle busy_from,
               dircc::Cycle busy_until) override {
    tracer_.begin(Layer::kObs);
    inner_.on_home(home, wait, busy_from, busy_until);
    tracer_.end();
  }
  void on_commit(const dircc::Transaction& txn,
                 const dircc::TransactionRoute& route, dircc::Cycle now,
                 dircc::Cycle latency) override {
    tracer_.begin(Layer::kObs);
    inner_.on_commit(txn, route, now, latency);
    tracer_.end();
    ++commits_;
  }

  std::uint64_t commits() const { return commits_; }

 private:
  dircc::AttributionSink& inner_;
  Tracer& tracer_;
  std::uint64_t commits_ = 0;
};

/// Engine floor: a memory system that does no coherence work and answers
/// every access with a fixed latency. Driving a trace through it measures
/// event fetch plus engine scheduling alone.
class NullMemory final : public dircc::MemorySystem {
 public:
  NullMemory(int procs, int block_size)
      : procs_(procs), block_size_(block_size) {}

  dircc::Cycle access(dircc::ProcId /*proc*/, dircc::BlockAddr /*block*/,
                      bool /*is_write*/, dircc::Cycle /*now*/) override {
    return 1;
  }
  using MemorySystem::access;

  int num_procs() const override { return procs_; }
  int block_size() const override { return block_size_; }
  dircc::NodeId cluster_of(dircc::ProcId proc) const override {
    return static_cast<dircc::NodeId>(proc);
  }
  const dircc::ProtocolStats& stats() const override { return stats_; }
  dircc::CacheStats aggregate_cache_stats() const override { return {}; }

 private:
  int procs_;
  int block_size_;
  dircc::ProtocolStats stats_;
};

}  // namespace simbench
