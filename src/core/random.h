#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace sidq {

// Mixes (base_seed, key) into one well-distributed 64-bit stream seed via
// two rounds of the SplitMix64 finalizer. Nearby keys (0, 1, 2, ...) yield
// statistically independent streams, which is what the fleet executor needs:
// each trajectory draws from the substream (base_seed, trajectory_id), so
// randomized cleaning stages produce bit-identical output no matter how the
// batch is sharded across worker threads.
inline uint64_t DeriveSeed(uint64_t base_seed, uint64_t key) {
  auto mix = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  uint64_t z = mix(base_seed + 0x9E3779B97F4A7C15ull);
  z = mix(z ^ (key + 0x9E3779B97F4A7C15ull));
  return z;
}

// MT19937-64 (Nishimura 2000): the engine and output sequence that the C++
// standard specifies for std::mt19937_64 ([rand.predef]), so the 10000th
// output for the default seed 5489 is 9981545732273789042. The seeding
// recurrence and the tempering are the standard's. The twist selects its
// matrix term with a mask instead of a branch on the low bit, which
// mispredicts on half the words. Satisfies UniformRandomBitGenerator, so
// std:: distributions can draw from it.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr uint64_t kDefaultSeed = 5489u;

  explicit Mt19937_64(uint64_t seed = kDefaultSeed) {
    x_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ull * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  result_type operator()() {
    if (p_ >= kN) Twist();
    uint64_t z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;
  static constexpr uint64_t kA = 0xB5026F5AA96619E9ull;
  static constexpr uint64_t kUpper = ~uint64_t{0} << 31;

  // Regenerates all kN words. Bit 0 of y is bit 0 of x_[k + 1], since the
  // lower mask keeps 31 low bits of the next word.
  void Twist() {
    auto twist_word = [this](size_t k, size_t k1, size_t km) {
      const uint64_t y = (x_[k] & kUpper) | (x_[k1] & ~kUpper);
      x_[k] = x_[km] ^ (y >> 1) ^ (kA & (0 - (x_[k1] & 1)));
    };
    for (size_t k = 0; k < kN - kM; ++k) twist_word(k, k + 1, k + kM);
    for (size_t k = kN - kM; k < kN - 1; ++k) {
      twist_word(k, k + 1, k + kM - kN);
    }
    twist_word(kN - 1, 0, kM - 1);
    p_ = 0;
  }

  uint64_t x_[kN];
  size_t p_ = kN;
};

// Maps 64 random bits to a double in [0, 1) exactly as libstdc++'s
// generate_canonical<double, 53> does for a 64-bit engine: u / 2^64 rounded
// to nearest, clamped to the largest double below 1 when that rounds up.
// The two 32-bit halves convert exactly and their sum rounds once, so
// double(u) is the correctly rounded conversion without the sign branch an
// unsigned 64-bit convert costs on SSE2.
inline double ToCanonical(uint64_t u) {
  const double d =
      static_cast<double>(static_cast<uint32_t>(u >> 32)) * 0x1p32 +
      static_cast<double>(static_cast<uint32_t>(u));
  const double c = d * 0x1p-64;
  return c >= 1.0 ? 0x1.fffffffffffffp-1 : c;
}

// Deterministic random source used throughout simulators and randomized
// algorithms: experiments are reproducible bit-for-bit given the same seed.
// Canonical, Uniform, Gaussian, Exponential and Bernoulli are computed here
// and draw the same values as libstdc++'s distributions over
// std::mt19937_64. UniformInt, Poisson and Categorical delegate to the
// std:: distributions over this engine.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  // Substream constructor: an Rng seeded with DeriveSeed(base_seed, key).
  static Rng ForKey(uint64_t base_seed, uint64_t key) {
    return Rng(DeriveSeed(base_seed, key));
  }

  // Uniform double in [0, 1), one engine draw.
  double Canonical() { return ToCanonical(engine_()); }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return Canonical() * (hi - lo) + lo;
  }
  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }
  // Gaussian with the given mean and standard deviation, by the Marsaglia
  // polar method. The pair's other variate, x * mult, is discarded, as a
  // fresh std::normal_distribution per call discards it.
  double Gaussian(double mean, double stddev) {
    double x, y, r2;
    do {
      x = 2.0 * Canonical() - 1.0;
      y = 2.0 * Canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult * stddev + mean;
  }
  // Exponential with the given rate (lambda).
  double Exponential(double rate) {
    return -std::log(1.0 - Canonical()) / rate;
  }
  // Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Canonical() < p; }
  // Poisson sample with the given mean.
  int Poisson(double mean) {
    return std::poisson_distribution<int>(mean)(engine_);
  }
  // Samples an index in [0, weights.size()) proportionally to weights.
  size_t Categorical(const std::vector<double>& weights) {
    std::discrete_distribution<size_t> d(weights.begin(), weights.end());
    return d(engine_);
  }
  // Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace sidq
