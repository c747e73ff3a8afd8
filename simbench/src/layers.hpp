// Host-time spans for the benchmark's traced pass.
//
// Layers are named after the src/ modules whose public interfaces the
// benchmark times from outside: `trace` (EventSource::next), `sim`
// (Engine::run minus its children), `protocol` (MemorySystem::access on a
// CoherenceSystem: caches, directory, Transaction IR and latency backend),
// `obs` (the AttributionSink callbacks) and `check`
// (AccessObserver::on_access).
//
// A span is opened right before a call into a layer and closed right after
// it. Its self time is its duration minus the durations of the spans it
// encloses, minus what the timer itself costs (calibrated once per run, see
// SpanCost). Per-call self times are folded per layer into a count, a sum
// and a log-linear histogram, so the traced pass keeps O(layers) memory no
// matter how many calls it times.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace simbench {

enum class Layer : std::uint8_t { kTrace, kSim, kProtocol, kObs, kCheck };
inline constexpr int kNumLayers = 5;

const char* layer_name(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span timestamps. On x86-64 this reads the time-stamp counter, which
/// costs a fraction of a steady_clock read; elsewhere it is now_ns().
inline std::int64_t ticks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return now_ns();
#endif
}

/// Nanoseconds per ticks() unit, measured once against steady_clock.
double ns_per_tick();

/// Log-linear histogram of durations in whole nanoseconds (negative ones
/// count as 0): one bucket per nanosecond below 64 ns, then 16 buckets per
/// power of two (every bucket is at most 1/16 of its lower edge wide).
class DurationHistogram {
 public:
  void add(double ns);
  void merge(const DurationHistogram& other);
  std::uint64_t count() const { return count_; }

  /// Nearest-rank percentile, `q` in [0, 100]: the midpoint of the bucket
  /// holding the ceil(q/100 * count)-th smallest sample. 0 when empty.
  double percentile(double q) const;

  /// Bucket index of `ns` and the bucket's [lower, upper) edges.
  static int bucket_of(double ns);
  static double lower_edge(int bucket);
  static double upper_edge(int bucket);

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// What one timed span costs. `inner_ns` is the part of the timer that
/// falls inside the span's own [start, stop) interval (an empty span's
/// measured duration); `total_ns` is what a span adds to the interval of
/// the span around it. Both are subtracted so self times count only the
/// work of the layer.
struct SpanCost {
  double inner_ns = 0.0;
  double total_ns = 0.0;
};

/// Times empty spans and empty loop iterations and returns the median of
/// `rounds` calibrations.
SpanCost calibrate_span_cost(int rounds = 7, int spans_per_round = 200000);

/// Self time of a span of `duration_ns` that enclosed `children` spans
/// whose durations sum to `children_ns`.
inline double self_time(double duration_ns, double children_ns,
                        std::uint64_t children, const SpanCost& cost) {
  return duration_ns - children_ns - cost.inner_ns -
         static_cast<double>(children) * (cost.total_ns - cost.inner_ns);
}

/// Per-layer aggregate of timed calls.
struct LayerTotals {
  std::uint64_t calls = 0;
  double self_ns = 0.0;
  DurationHistogram hist;

  void merge(const LayerTotals& other);
};

using LayerArray = std::array<LayerTotals, kNumLayers>;

/// Folds `from` into `into`, layer by layer.
void merge(LayerArray& into, const LayerArray& from);

/// Spans closed, over every layer.
std::uint64_t total_calls(const LayerArray& layers);

/// Stack of open spans. Spans nest strictly (every begin has its end before
/// the enclosing span ends); the benchmark's call graph is at most three
/// deep (sim -> protocol -> obs, sim -> trace, sim -> check).
class Tracer {
 public:
  /// `ns_per_tick` converts timestamps to nanoseconds: ns_per_tick() for
  /// begin()/end(), 1 for callers that pass nanoseconds to the _at forms.
  explicit Tracer(SpanCost cost = {}, double ns_per_tick = 1.0)
      : cost_(cost), ns_per_tick_(ns_per_tick) {}

  void begin(Layer layer) { begin_at(layer, ticks()); }
  /// Closes the innermost span and returns its self time in nanoseconds.
  double end() { return end_at(ticks()); }

  /// Explicit-timestamp forms (begin()/end() pass ticks()).
  void begin_at(Layer layer, std::int64_t start);
  double end_at(std::int64_t stop);

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }
  const LayerArray& all() const { return totals_; }
  int depth() const { return depth_; }

 private:
  static constexpr int kMaxDepth = 8;
  struct Frame {
    Layer layer = Layer::kSim;
    std::int64_t start = 0;
    double children_ns = 0.0;
    std::uint64_t children = 0;
  };

  SpanCost cost_;
  double ns_per_tick_;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  LayerArray totals_{};
};

/// A coarse span recorded individually (cells, trace builds, engine runs);
/// `cell` is the identifier the spans of one cell share.
struct CoarseSpan {
  std::string cell;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
};

/// Median of `values` (copied); 0 when empty.
double median(std::vector<double> values);

}  // namespace simbench
