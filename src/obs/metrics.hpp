#pragma once
/// \file metrics.hpp
/// \brief Thread-safe metrics registry: counters, gauges, duration histograms.
///
/// Observability is off by default and must stay near-free when off: every
/// entry point first checks a single relaxed atomic and returns immediately,
/// so library users pay one predictable branch per call site. Hot loops do
/// not call the registry per element — they accumulate into plain locals and
/// flush once per pass/round/scope (see the instrumented call sites), so even
/// the enabled cost is a handful of map lookups per flow stage.
///
/// Enabling: `FlowParams::obs` scopes it to one `run_flow` call (via
/// ScopedEnable), benches turn it on globally, and the environment variable
/// `T1SFQ_TRACE` turns it on for any process (value `1` or a path; see
/// docs/OBSERVABILITY.md).

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace t1sfq::obs {

/// True when metrics/spans are being recorded. Relaxed read; callers treat it
/// as a hint (a race during enable/disable loses at most boundary samples).
bool enabled();

/// Flips recording on/off (idempotent, thread-safe).
void set_enabled(bool on);

/// True when the T1SFQ_TRACE environment variable requested tracing at
/// process start (consulted once, cached).
bool env_trace_requested();

/// RAII enable for a scope (used by run_flow for FlowParams::obs). Restores
/// the previous state on destruction; a no-op when \p on is false.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on);
  ~ScopedEnable();
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool flipped_ = false;
};

enum class MetricKind { Counter, Gauge, Histogram };

/// Number of power-of-two histogram buckets: bucket 0 holds value 0, bucket
/// i >= 1 holds values in [2^(i-1), 2^i). 40 buckets cover > 15 years in
/// microseconds.
constexpr std::size_t kHistogramBuckets = 40;

/// One registry row, as returned by snapshot().
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  uint64_t count = 0;   ///< counter total / histogram sample count
  int64_t value = 0;    ///< gauge (last or max, per call site)
  uint64_t sum_us = 0;  ///< histogram: total microseconds
  uint64_t max_us = 0;  ///< histogram: largest sample
  /// Histogram: per-bucket sample counts (log2 buckets, see above).
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Approximate percentile from the log2 buckets: returns the upper bound of
  /// the bucket holding the rank-`ceil(p * count)` sample, clamped to max_us —
  /// exact for single-bucket distributions, within 2x otherwise. \p p is a
  /// fraction (0.5 = p50). Returns 0 for empty histograms / non-histograms.
  uint64_t percentile_us(double p) const;
};

class Registry {
 public:
  static Registry& instance();

  void add(std::string_view name, uint64_t delta);
  void set(std::string_view name, int64_t value);
  void set_max(std::string_view name, int64_t value);  ///< keeps the maximum
  /// Records \p samples samples of value \p us in one call, exactly as that
  /// many single observations would (hot loops count per bucket, then flush).
  void observe_us(std::string_view name, uint64_t us, uint64_t samples = 1);

  /// Current counter value (0 when absent). Intended for tests and exports.
  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;

  /// All metrics, sorted by name (deterministic export order).
  std::vector<Metric> snapshot() const;
  void reset();

 private:
  Registry() = default;
  mutable std::mutex mu_;
  std::map<std::string, Metric, std::less<>> metrics_;
};

// -- Convenience wrappers: single enabled() branch, then forward. -----------

inline void count(std::string_view name, uint64_t delta = 1) {
  if (enabled() && delta != 0) {
    Registry::instance().add(name, delta);
  }
}

inline void gauge_set(std::string_view name, int64_t value) {
  if (enabled()) {
    Registry::instance().set(name, value);
  }
}

inline void gauge_max(std::string_view name, int64_t value) {
  if (enabled()) {
    Registry::instance().set_max(name, value);
  }
}

inline void observe_us(std::string_view name, uint64_t us, uint64_t samples = 1) {
  if (enabled() && samples != 0) {
    Registry::instance().observe_us(name, us, samples);
  }
}

}  // namespace t1sfq::obs
