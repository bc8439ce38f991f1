#include "util/rng.hpp"

#include <cmath>
#include <cstddef>

#include "util/error.hpp"

namespace sable {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// The ziggurat covers f(x) = exp(-x^2 / 2) on x >= 0 with 256 layers of
// equal area v (Marsaglia & Tsang, "The Ziggurat Method for Generating
// Random Variables", 2000). Layer i >= 1 is the box [0, x[i]] x
// [f[i], f[i+1]]; layer 0 is the box [0, R] x [0, f(R)] plus the tail
// beyond R, drawn as a box of width x[0] = v / f(R). x decreases from
// x[1] = R to x[256] = 0, and f[i] = f(x[i]).
//
// The tables are fixed at compile time from IEEE basic operations (no
// libm): its exp and log differ between hosts in the last bit, and one
// flipped table bit would change every trace of every campaign.
constexpr double kZigguratR = 3.6541528853610088;

constexpr double kLn2Hi = 6.93147180369123816490e-01;  // fdlibm's split
constexpr double kLn2Lo = 1.90821492927058770002e-10;

/// exp(a) for a <= 0 above the subnormal range.
constexpr double ct_exp(double a) {
  const double q = a * 1.4426950408889634;
  const int k = static_cast<int>(q - 0.5);  // round half down, q <= 0
  const double r = (a - k * kLn2Hi) - k * kLn2Lo;
  double p = 1.0;
  for (int n = 20; n >= 1; --n) p = 1.0 + p * r / n;
  for (int j = k; j < 0; ++j) p *= 0.5;
  return p;
}

/// log(x) for x > 0, via 2 atanh((m - 1) / (m + 1)) on m in [1/sqrt2, sqrt2).
constexpr double ct_log(double x) {
  int e = 0;
  for (; x < 0x1.6a09e667f3bcdp-1; --e) x *= 2.0;
  for (; x >= 0x1.6a09e667f3bcdp0; ++e) x *= 0.5;
  const double s = (x - 1.0) / (x + 1.0);
  double p = 0.0;
  for (int n = 41; n >= 1; n -= 2) p = 1.0 / n + s * s * p;
  return e * kLn2Hi + (2.0 * s * p + e * kLn2Lo);
}

/// sqrt(x) for x >= 0: Newton's iteration, descending from above.
constexpr double ct_sqrt(double x) {
  if (x == 0.0) return 0.0;
  double y = x > 1.0 ? x : 1.0;
  for (;;) {
    const double next = 0.5 * (y + x / y);
    if (next >= y) return y;
    y = next;
  }
}

struct ZigguratTables {
  double x[257];
  double f[257];
};

constexpr ZigguratTables build_ziggurat() {
  constexpr double r = kZigguratR;
  ZigguratTables z{};
  // x[0] = v / f(R) = R + Mills ratio of R (Laplace's continued fraction).
  double cf = r;
  for (int n = 200; n >= 1; --n) cf = r + n / cf;
  z.x[0] = r + 1.0 / cf;
  z.x[1] = r;
  const double v = z.x[0] * ct_exp(-0.5 * r * r);
  for (int i = 1; i < 255; ++i) {
    const double fi = ct_exp(-0.5 * z.x[i] * z.x[i]);
    z.x[i + 1] = ct_sqrt(-2.0 * ct_log(v / z.x[i] + fi));
  }
  z.x[256] = 0.0;
  for (int i = 0; i <= 256; ++i) z.f[i] = ct_exp(-0.5 * z.x[i] * z.x[i]);
  return z;
}

constexpr ZigguratTables kZiggurat = build_ziggurat();

// R and v belong together: the top layer must close at f(0) = 1 with
// the same area v = x[0] f(R) as every other layer.
constexpr double kTopLayerAreaError =
    kZiggurat.x[255] * (1.0 - kZiggurat.f[255]) /
        (kZiggurat.x[0] * kZiggurat.f[1]) -
    1.0;
static_assert(kTopLayerAreaError < 1e-12 && kTopLayerAreaError > -1e-12,
              "ziggurat layers must have equal areas");

/// Uniform double in (0, 1] from the high 53 bits of a draw.
double open_unit(std::uint64_t bits) {
  return static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
}

/// The ~1.5% of draws outside their layer's core: x = u * x[i] with
/// |x| >= x[i + 1]. Kept out of line so the fast path stays a leaf.
[[gnu::noinline]] double gaussian_edge(Rng& rng, std::size_t i, double u,
                                       double x) {
  if (i == 0) {
    // Marsaglia's exponential tail beyond R, from uniforms in (0, 1].
    double t = 0.0;
    double y = 0.0;
    do {
      t = -std::log(open_unit(rng.next())) / kZigguratR;
      y = -std::log(open_unit(rng.next()));
    } while (y + y < t * t);
    return std::copysign(kZigguratR + t, u);
  }
  // Wedge: a uniform height in layer i, accepted under the density;
  // a rejected point starts a fresh draw.
  const double f = kZiggurat.f[i] +
                   (kZiggurat.f[i + 1] - kZiggurat.f[i]) * rng.uniform();
  return f < std::exp(-0.5 * x * x) ? x : rng.gaussian();
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  SABLE_ASSERT(bound > 0, "Rng::below requires a positive bound");
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::gaussian() {
  // Low 8 bits pick the layer; the high 53 bits, read as a signed integer,
  // are a uniform u in [-1, 1) that carries the sign.
  const std::uint64_t r = next();
  const std::size_t i = r & 0xff;
  const double u =
      static_cast<double>(static_cast<std::int64_t>(r) >> 11) * 0x1.0p-52;
  const double x = u * kZiggurat.x[i];
  if (std::fabs(x) < kZiggurat.x[i + 1]) return x;
  return gaussian_edge(*this, i, u, x);
}

bool Rng::chance(double p) { return uniform() < p; }

}  // namespace sable
