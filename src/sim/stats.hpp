// Measurement containers used by benches and tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace vtopo::sim {

/// Streaming mean/variance/min/max (Welford).
class OnlineStats {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// A stored sample series with percentile queries. Used for per-rank
/// latency curves (Figs. 6 and 7 plot one point per process rank).
class Series {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }
  /// Append another series' samples (sharded-tracer fold).
  void append(const Series& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
  /// Sort samples ascending: a canonical order independent of which
  /// shard recorded which sample, so folded series compare bytewise
  /// across shard counts.
  void sort_samples() { std::sort(samples_.begin(), samples_.end()); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Linear-interpolated percentile, p in [0,100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

 private:
  std::vector<double> samples_;
};

}  // namespace vtopo::sim
