#include "power/stats.hpp"

#include <algorithm>
#include <cmath>

#include "io/serial.hpp"
#include "util/error.hpp"

namespace sable {

double mean(const std::vector<double>& xs) {
  SABLE_REQUIRE(!xs.empty(), "mean of empty sample set");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  // Deviations are taken from the first sample before centring, as the
  // streaming accumulators do: a constant set then has exactly zero
  // spread, where centring on its rounded mean would leave a residue.
  SABLE_REQUIRE(!xs.empty(), "stddev of empty sample set");
  const double shift = xs.front();
  double sum = 0.0;
  for (double x : xs) sum += x - shift;
  const double mu = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) {
    const double d = (x - shift) - mu;
    var += d * d;
  }
  return std::sqrt(var / static_cast<double>(xs.size()));
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  SABLE_REQUIRE(xs.size() == ys.size() && !xs.empty(),
                "pearson requires equal-size non-empty samples");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void OnlineMoments::merge(const OnlineMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  mean_ += delta * (nb / n);
  m2_ += other.m2_ + delta * delta * (na * nb / n);
  n_ += other.n_;
}

double OnlineMoments::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineMoments::stddev() const { return std::sqrt(variance()); }

void OnlineMoments::save(ByteWriter& writer) const {
  writer.u64(n_);
  writer.f64(mean_);
  writer.f64(m2_);
}

void OnlineMoments::load(ByteReader& reader) {
  n_ = reader.u64();
  mean_ = reader.f64();
  m2_ = reader.f64();
}

SpreadMetrics spread_metrics(const std::vector<double>& xs) {
  SABLE_REQUIRE(!xs.empty(), "spread_metrics of empty sample set");
  SpreadMetrics m;
  const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  m.min = *mn;
  m.max = *mx;
  m.mean = mean(xs);
  m.stddev = stddev(xs);
  m.ned = m.max > 0.0 ? (m.max - m.min) / m.max : 0.0;
  m.nsd = m.mean > 0.0 ? m.stddev / m.mean : 0.0;
  return m;
}

}  // namespace sable
