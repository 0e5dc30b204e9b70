#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace evs::obs {

namespace {

// Positive doubles order like their bit patterns, so rounding the pattern
// to the top kMantissaBits of mantissa gives a monotone bucket key (the
// exponent above those bits) whose own value is the bucket's
// representative.
constexpr int kDropBits = 52 - Histogram::kMantissaBits;
constexpr std::uint32_t kOctave = 1u << Histogram::kMantissaBits;
// Keeps a stray sample from stretching the bucket array over thousands
// of powers of two.
constexpr double kLowest = 0x1p-24;
constexpr double kHighest = 0x1p40;

std::uint32_t key_of(double sample) {
  const auto bits =
      std::bit_cast<std::uint64_t>(std::clamp(sample, kLowest, kHighest));
  return static_cast<std::uint32_t>(
      (bits + (std::uint64_t{1} << (kDropBits - 1))) >> kDropBits);
}

double value_of(std::uint32_t key) {
  return std::bit_cast<double>(std::uint64_t{key} << kDropBits);
}

}  // namespace

void Histogram::record(double sample) {
  if (count_ == 0 || sample < min_) min_ = sample;
  if (count_ == 0 || sample > max_) max_ = sample;
  ++count_;
  sum_ += sample;
  if (!(sample > 0)) {
    ++zeros_;
    return;
  }
  const std::uint32_t key = key_of(sample);
  cover(key, key + 1);
  ++counts_[key - lo_key_];
}

void Histogram::cover(std::uint32_t lo, std::uint32_t hi) {
  const auto end = static_cast<std::uint32_t>(lo_key_ + counts_.size());
  if (!counts_.empty()) {
    if (lo >= lo_key_ && hi <= end) return;
    lo = std::min(lo, lo_key_);
    hi = std::max(hi, end);
  }
  // Whole powers of two: a histogram widens at most once per power of
  // two it spans, so record() stays O(1) amortised.
  lo &= ~(kOctave - 1);
  hi = (hi + kOctave - 1) & ~(kOctave - 1);
  std::vector<std::uint64_t> wider(hi - lo);
  if (!counts_.empty())
    std::copy(counts_.begin(), counts_.end(), wider.begin() + (lo_key_ - lo));
  counts_ = std::move(wider);
  lo_key_ = lo;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  zeros_ += other.zeros_;
  if (other.counts_.empty()) return;
  cover(other.lo_key_,
        static_cast<std::uint32_t>(other.lo_key_ + other.counts_.size()));
  const std::size_t offset = other.lo_key_ - lo_key_;
  for (std::size_t i = 0; i < other.counts_.size(); ++i)
    counts_[offset + i] += other.counts_[i];
}

double Histogram::min() const { return count_ == 0 ? 0.0 : min_; }

double Histogram::max() const { return count_ == 0 ? 0.0 : max_; }

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  EVS_CHECK(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  // Nearest rank: the bucket where the cumulative count first reaches
  // ceil(q * count). The first and last ranks are min and max, exactly.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank <= 1) return min_;
  if (rank >= count_) return max_;
  std::uint64_t seen = zeros_;
  if (seen >= rank) return std::clamp(0.0, min_, max_);
  std::size_t i = 0;
  while ((seen += counts_[i]) < rank) ++i;  // ends: the counts sum to count_
  return std::clamp(value_of(static_cast<std::uint32_t>(lo_key_ + i)), min_,
                    max_);
}

namespace {

// JSON numbers must not be NaN/Inf; clamp defensively.
void put_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  os << v;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":";
    put_number(os, g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":{\"count\":" << h.count() << ",\"sum\":";
    put_number(os, h.sum());
    os << ",\"min\":";
    put_number(os, h.min());
    os << ",\"max\":";
    put_number(os, h.max());
    os << ",\"mean\":";
    put_number(os, h.mean());
    os << ",\"p50\":";
    put_number(os, h.quantile(0.50));
    os << ",\"p90\":";
    put_number(os, h.quantile(0.90));
    os << ",\"p95\":";
    put_number(os, h.quantile(0.95));
    os << ",\"p99\":";
    put_number(os, h.quantile(0.99));
    os << "}";
  }
  os << "}}";
  return os.str();
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

void put_prom_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  os << v;
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << c.value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " ";
    put_prom_number(os, g.value());
    os << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " summary\n";
    for (const double q : {0.5, 0.9, 0.95, 0.99}) {
      os << n << "{quantile=\"" << q << "\"} ";
      put_prom_number(os, h.quantile(q));
      os << "\n";
    }
    os << n << "_sum ";
    put_prom_number(os, h.sum());
    os << "\n" << n << "_count " << h.count() << "\n";
  }
  return os.str();
}

}  // namespace evs::obs
