#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/ensure.hpp"

namespace simbench {
namespace {

constexpr int kLinearBuckets = 64;  // one per nanosecond below 64 ns
constexpr int kSubBuckets = 16;     // per power of two above (2^4)
constexpr int kFirstExponent = 6;   // 2^6 = 64
constexpr int kLastExponent = 40;   // ~18 minutes; longer spans clamp

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTrace:
      return "trace";
    case Layer::kSim:
      return "sim";
    case Layer::kProtocol:
      return "protocol";
    case Layer::kObs:
      return "obs";
    case Layer::kCheck:
      return "check";
  }
  return "?";
}

int DurationHistogram::bucket_of(double ns) {
  if (!(ns >= 1.0)) {
    return 0;
  }
  const auto value = static_cast<std::uint64_t>(
      std::min(ns, std::ldexp(1.0, kLastExponent + 1) - 1.0));
  if (value < kLinearBuckets) {
    return static_cast<int>(value);
  }
  const int exponent = std::bit_width(value) - 1;
  const auto sub = static_cast<int>((value >> (exponent - 4)) & 15);
  return kLinearBuckets + (exponent - kFirstExponent) * kSubBuckets + sub;
}

double DurationHistogram::lower_edge(int bucket) {
  if (bucket < kLinearBuckets) {
    return bucket;
  }
  const int exponent = kFirstExponent + (bucket - kLinearBuckets) / kSubBuckets;
  const int sub = (bucket - kLinearBuckets) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exponent);
}

double DurationHistogram::upper_edge(int bucket) {
  return lower_edge(bucket + 1);
}

void DurationHistogram::add(double ns) {
  const auto bucket = static_cast<std::size_t>(bucket_of(ns));
  if (bucket >= buckets_.size()) {
    buckets_.resize(bucket + 1, 0);
  }
  ++buckets_[bucket];
  ++count_;
}

void DurationHistogram::merge(const DurationHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double DurationHistogram::percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double clamped = std::clamp(q, 0.0, 100.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped / 100.0 * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const int bucket = static_cast<int>(i);
      return 0.5 * (lower_edge(bucket) + upper_edge(bucket));
    }
  }
  return 0.0;  // unreachable: the counts sum to count_
}

void LayerTotals::merge(const LayerTotals& other) {
  calls += other.calls;
  self_ns += other.self_ns;
  hist.merge(other.hist);
}

void Tracer::begin_at(Layer layer, std::int64_t start) {
  dircc::ensure(depth_ < kMaxDepth, "span stack overflow");
  Frame& frame = stack_[static_cast<std::size_t>(depth_++)];
  frame.layer = layer;
  frame.start = start;
  frame.children_ns = 0.0;
  frame.children = 0;
}

double Tracer::end_at(std::int64_t stop) {
  dircc::ensure(depth_ > 0, "span closed without an open span");
  const Frame& frame = stack_[static_cast<std::size_t>(--depth_)];
  const double duration =
      static_cast<double>(stop - frame.start) * ns_per_tick_;
  const double self =
      self_time(duration, frame.children_ns, frame.children, cost_);
  LayerTotals& totals = totals_[static_cast<int>(frame.layer)];
  ++totals.calls;
  totals.self_ns += self;
  totals.hist.add(self);
  if (depth_ > 0) {
    Frame& parent = stack_[static_cast<std::size_t>(depth_ - 1)];
    parent.children_ns += duration;
    ++parent.children;
  }
  return self;
}

void merge(LayerArray& into, const LayerArray& from) {
  for (std::size_t l = 0; l < into.size(); ++l) {
    into[l].merge(from[l]);
  }
}

std::uint64_t total_calls(const LayerArray& layers) {
  std::uint64_t total = 0;
  for (const LayerTotals& layer : layers) {
    total += layer.calls;
  }
  return total;
}

double ns_per_tick() {
  static const double scale = [] {
#if defined(__x86_64__)
    // Busy-wait 50 ms and compare the two clocks over the interval.
    const std::int64_t ns_start = now_ns();
    const std::int64_t tick_start = ticks();
    while (now_ns() - ns_start < 50'000'000) {
    }
    const std::int64_t ns_stop = now_ns();
    const std::int64_t tick_stop = ticks();
    return static_cast<double>(ns_stop - ns_start) /
           static_cast<double>(tick_stop - tick_start);
#else
    return 1.0;
#endif
  }();
  return scale;
}

SpanCost calibrate_span_cost(int rounds, int spans_per_round) {
  const double scale = ns_per_tick();
  std::vector<double> inner;
  std::vector<double> total;
  for (int round = 0; round < rounds; ++round) {
    // Empty spans nested one level deep, exactly like a timed layer call.
    Tracer tracer({}, scale);
    tracer.begin(Layer::kSim);
    const std::int64_t spans_start = ticks();
    for (int i = 0; i < spans_per_round; ++i) {
      tracer.begin(Layer::kTrace);
      tracer.end();
    }
    const std::int64_t spans_stop = ticks();
    tracer.end();
    // The same loop without spans.
    const std::int64_t loop_start = ticks();
    for (int i = 0; i < spans_per_round; ++i) {
      asm volatile("" ::: "memory");
    }
    const std::int64_t loop_stop = ticks();
    const auto n = static_cast<double>(spans_per_round);
    inner.push_back(tracer.totals(Layer::kTrace).self_ns / n);
    total.push_back(static_cast<double>((spans_stop - spans_start) -
                                        (loop_stop - loop_start)) *
                    scale / n);
  }
  return {median(inner), median(total)};
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace simbench
