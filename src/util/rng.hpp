// Deterministic, seedable random number generation for simulations.
//
// PCG32 (O'Neill, pcg-random.org, minimal variant) is used as the workhorse
// generator: small state, excellent statistical quality, and fully
// reproducible across platforms (unlike std::default_random_engine).
// SplitMix64 is provided for seed expansion so that correlated user seeds
// (1, 2, 3, ...) still yield decorrelated streams.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace flexnet {

/// SplitMix64 mixer; used to derive well-distributed seeds from simple ones.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Minimal PCG32 generator (XSH-RR variant). Satisfies
/// std::uniform_random_bit_generator so it composes with <random> if needed.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  /// Complete generator state. `draws` counts values produced since seeding —
  /// a position marker within the stream, useful for asserting that two
  /// generators sit at the same point (snapshot round-trip checks).
  struct State {
    std::uint64_t state = 0;
    std::uint64_t inc = 0;
    std::uint64_t draws = 0;

    friend constexpr bool operator==(const State&, const State&) noexcept =
        default;
  };

  constexpr Pcg32() noexcept { seed(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL); }

  explicit constexpr Pcg32(std::uint64_t seed_value,
                           std::uint64_t stream = 0) noexcept {
    seed(seed_value, stream);
  }

  constexpr void seed(std::uint64_t seed_value, std::uint64_t stream = 0) noexcept {
    state_ = 0;
    inc_ = (splitmix64(stream) << 1u) | 1u;
    next();
    state_ += splitmix64(seed_value);
    next();
    draws_ = 0;  // seeding scrambles; position counting starts here
  }

  /// Snapshot of the full generator state; restoring it resumes the exact
  /// output sequence from the saved position.
  [[nodiscard]] constexpr State save() const noexcept {
    return State{state_, inc_, draws_};
  }
  constexpr void restore(const State& s) noexcept {
    state_ = s.state;
    inc_ = s.inc;
    draws_ = s.draws;
  }
  /// Values produced since the last seed()/restore-to-zero point.
  [[nodiscard]] constexpr std::uint64_t draws() const noexcept { return draws_; }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next(); }

  /// Uniform integer in [0, bound). Uses Lemire's nearly-divisionless method
  /// with rejection to remove modulo bias.
  [[nodiscard]] constexpr std::uint32_t bounded(std::uint32_t bound) noexcept {
    if (bound <= 1) return 0;
    std::uint64_t m = static_cast<std::uint64_t>(next()) * bound;
    auto low = static_cast<std::uint32_t>(m);
    if (low < bound) {
      const std::uint32_t threshold = (0u - bound) % bound;
      while (low < threshold) {
        m = static_cast<std::uint64_t>(next()) * bound;
        low = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform double in [0, 1) with 53 bits of randomness: the first draw
  /// supplies the high 32 bits, the second the low 21.
  [[nodiscard]] constexpr double uniform() noexcept {
    const std::uint64_t hi = next();
    const std::uint64_t lo = next();
    return static_cast<double>(((hi << 32) | lo) >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] constexpr bool chance(double p) noexcept { return uniform() < p; }

  /// Index of the first success among `n` Bernoulli(p) trials, or `n` when
  /// none succeeds. Returns the same index and leaves the same state, draws
  /// included, as `for (i = 0; i < n; ++i) if (chance(p)) return i;`, but
  /// skips ahead: a trial is decided from its first draw alone (the second
  /// is computed only on a 2^-32 tie) and the state jumps over the second
  /// draw in one step.
  [[nodiscard]] std::uint64_t first_success(double p, std::uint64_t n) noexcept {
    // chance(p) is u * 2^-53 < p for the 53-bit u = hi << 21 | lo >> 11, so
    // a trial succeeds iff u < T = ceil(p * 2^53) (exact: a power-of-two
    // scaling), with T = 0 for p <= 0 or NaN and T = 2^53 for p >= 1.
    std::uint64_t threshold = 0;
    if (p >= 1.0) {
      threshold = std::uint64_t{1} << 53;
    } else if (p > 0.0) {
      threshold = static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
    }
    const std::uint64_t t_hi = threshold >> 21;
    const std::uint64_t t_lo = threshold & ((std::uint64_t{1} << 21) - 1);
    const auto success = [&](std::uint64_t s) {
      const std::uint64_t hi = output(s);
      if (hi != t_hi) return hi < t_hi;
      return (output(s * kMultiplier + inc_) >> 11) < t_lo;
    };
    // Two LCG steps (one trial's two draws) map s to mult * s + plus.
    const std::uint64_t mult = kMultiplier * kMultiplier;
    const std::uint64_t plus = inc_ * kMultiplier + inc_;
    std::uint64_t s = state_;  // the state before trial i's first draw
    for (std::uint64_t i = 0; i < n; ++i) {
      const bool hit = success(s);
      s = mult * s + plus;
      if (hit) {
        state_ = s;
        draws_ += 2 * (i + 1);
        return i;
      }
    }
    state_ = s;
    draws_ += 2 * n;
    return n;
  }

 private:
  static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;

  /// The output drawn from state `old` (XSH-RR).
  static constexpr result_type output(std::uint64_t old) noexcept {
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((0u - rot) & 31u));
  }

  constexpr result_type next() noexcept {
    const std::uint64_t old = state_;
    state_ = old * kMultiplier + inc_;
    ++draws_;
    return output(old);
  }

  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
  std::uint64_t draws_ = 0;
};

}  // namespace flexnet
