// Observability: the unified metrics registry.
//
// One MetricsRegistry gathers every layer's counters, gauges and
// histograms behind a single snapshot-to-JSON API. The per-module stats
// structs (sim::NetworkStats, vsync::EndpointStats, detector, ordering
// and group-object stats) stay as cheap always-on accumulators — they are
// the compatibility accessors benches read directly — and each module
// provides an export_metrics() that projects its struct into a registry
// under a caller-chosen prefix, so one to_json() call captures the whole
// run.
//
// Histograms are log-linear buckets in the HDR style: each positive
// sample is kept as its value rounded to 7 significant bits (the double's
// exponent and top 6 mantissa bits), 64 buckets per power of two. record()
// is O(1), a quantile walks the cumulative counts, histograms merge by
// adding counts, and the footprint grows with the powers of two the
// samples span, never with their number. count/sum/min/max stay exact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace evs::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  /// Snapshot-style absorption of an externally accumulated total.
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

class Histogram {
 public:
  /// Mantissa bits kept per sample: 2^kMantissaBits buckets per power of
  /// two. Rounding to nearest then bounds the relative error of a
  /// reported quantile by half a bucket.
  static constexpr int kMantissaBits = 6;
  static constexpr double kRelativeError = 1.0 / (2 << kMantissaBits);

  void record(double sample);
  /// Adds `other`'s samples: the result equals one histogram that
  /// recorded both sample sets (sum up to floating-point rounding).
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const;
  double max() const;
  double mean() const;
  /// Quantile by nearest rank; q in [0,1]. The result is within
  /// kRelativeError of the sample an exact sort would pick, and exact
  /// for samples of at most 7 significant bits (integers up to 128).
  /// Samples <= 0 share one bucket reported as 0, and samples outside
  /// [2^-24, 2^40] count at that range's ends; every result is clamped
  /// to [min(), max()].
  double quantile(double q) const;

  /// Bytes held by the bucket array: 512 per power of two spanned.
  std::size_t bucket_bytes() const {
    return counts_.capacity() * sizeof(std::uint64_t);
  }

 private:
  /// Widens the bucket array, in whole powers of two, to cover keys
  /// [lo, hi).
  void cover(std::uint32_t lo, std::uint32_t hi);

  /// counts_[i] counts the samples whose key is lo_key_ + i.
  std::vector<std::uint64_t> counts_;
  std::uint32_t lo_key_ = 0;
  std::uint64_t zeros_ = 0;  // samples <= 0
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

class MetricsRegistry {
 public:
  /// Named instruments are created on first use; names are hierarchical by
  /// convention ("net.messages_sent", "p0.vsync.views_installed", ...).
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// One JSON object with "counters"/"gauges"/"histograms" sections;
  /// histograms report count/sum/min/max/mean plus p50/p90/p95/p99. Keys
  /// are sorted (std::map) so snapshots diff cleanly across runs.
  std::string to_json() const;

  /// Prometheus text exposition (format 0.0.4): counters and gauges as
  /// single samples, histograms as summaries (quantile series + _sum +
  /// _count). Instrument names are sanitised to [a-zA-Z0-9_] ("." -> "_").
  std::string to_prometheus() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace evs::obs
