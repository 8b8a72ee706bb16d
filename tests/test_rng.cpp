#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

namespace flexnet {
namespace {

TEST(SplitMix64, KnownValuesAreStable) {
  // Fixed outputs guard against accidental algorithm changes that would
  // silently alter every experiment's random stream.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_NE(splitmix64(2), splitmix64(3));
}

TEST(Pcg32, DeterministicForEqualSeeds) {
  Pcg32 a(42, 7);
  Pcg32 b(42, 7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Pcg32, DifferentSeedsDiverge) {
  Pcg32 a(1);
  Pcg32 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Pcg32, DifferentStreamsDiverge) {
  Pcg32 a(42, 0);
  Pcg32 b(42, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Pcg32, BoundedStaysInRangeAndCoversAllValues) {
  Pcg32 rng(123);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t v = rng.bounded(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Pcg32, BoundedEdgeCases) {
  Pcg32 rng(5);
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Pcg32, UniformWithinUnitInterval) {
  Pcg32 rng(9);
  double sum = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Pcg32, ChanceMatchesProbability) {
  Pcg32 rng(11);
  int hits = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.02);
}

TEST(Pcg32, ChanceExtremes) {
  Pcg32 rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Pcg32, SaveRestoreReproducesTheStream) {
  // The snapshot subsystem relies on this exactly: capture the state at an
  // arbitrary position, keep drawing, then restore — the restored generator
  // must replay the identical suffix of the stream.
  Pcg32 rng(99, 3);
  for (int i = 0; i < 1234; ++i) (void)rng();
  const Pcg32::State mark = rng.save();
  EXPECT_EQ(mark.draws, 1234u);

  std::vector<std::uint32_t> expected;
  for (int i = 0; i < 500; ++i) expected.push_back(rng());
  EXPECT_EQ(rng.draws(), 1734u);

  Pcg32 other(1);  // deliberately different seed: restore overrides it all
  other.restore(mark);
  EXPECT_EQ(other.save(), mark);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(other(), expected[static_cast<std::size_t>(i)]);
  }
}

TEST(Pcg32, DrawCounterTracksEveryKindOfDraw) {
  Pcg32 rng(7);
  (void)rng();
  (void)rng.bounded(10);     // may draw multiple times (rejection sampling)
  (void)rng.chance(0.5);
  const std::uint64_t draws = rng.draws();
  EXPECT_GE(draws, 3u);
  // Replaying the same calls from the saved start reaches the same position.
  Pcg32 replay(7);
  (void)replay();
  (void)replay.bounded(10);
  (void)replay.chance(0.5);
  EXPECT_EQ(replay.draws(), draws);
  EXPECT_EQ(replay.save(), rng.save());
}

TEST(Pcg32, BoundedIsUnbiasedAcrossBuckets) {
  Pcg32 rng(17);
  std::vector<int> counts(10, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.bounded(10)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kSamples, 0.1, 0.01);
  }
}


/// The loop first_success() must reproduce, draw for draw.
std::uint64_t first_success_by_loop(Pcg32& rng, double p, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rng.chance(p)) return i;
  }
  return n;
}

void expect_same_first_success(Pcg32 start, double p, std::uint64_t n) {
  Pcg32 skip = start;
  Pcg32 loop = start;
  const std::uint64_t got = skip.first_success(p, n);
  const std::uint64_t want = first_success_by_loop(loop, p, n);
  ASSERT_EQ(got, want) << "p=" << p << " n=" << n;
  ASSERT_EQ(skip.save(), loop.save()) << "p=" << p << " n=" << n;
}

TEST(Pcg32, FirstSuccessMatchesTheTrialLoopOverRandomInputs) {
  Pcg32 meta(2024);
  for (int trial = 0; trial < 3000; ++trial) {
    Pcg32 rng(meta(), meta.bounded(4));
    (void)rng.bounded(1 + meta.bounded(5));  // start off an even draw count
    // Probabilities from certain failure to near-certain success, with many
    // tiny ones so long skips (and the all-fail tail) are exercised.
    const double p = std::ldexp(meta.uniform(), -static_cast<int>(meta.bounded(12)));
    const std::uint64_t n = meta.bounded(70);
    expect_same_first_success(rng, p, n);
    // Consecutive calls, as an injection tick makes them, stay in lockstep.
    Pcg32 skip = rng;
    Pcg32 loop = rng;
    for (std::uint64_t left = 1 + meta.bounded(500); left > 0;) {
      const std::uint64_t got = skip.first_success(p, left);
      ASSERT_EQ(got, first_success_by_loop(loop, p, left));
      ASSERT_EQ(skip.save(), loop.save());
      left -= std::min(left, got + 1);
    }
  }
}

TEST(Pcg32, FirstSuccessEdgeProbabilities) {
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const double edges[] = {0.0,
                          -0.0,
                          -1.0,
                          1.0,
                          2.0,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          subnormal,
                          1e-310,
                          std::numeric_limits<double>::min(),
                          std::ldexp(1.0, -53),
                          std::ldexp(2.0, -53),
                          std::ldexp(3.0, -53),
                          std::ldexp(static_cast<double>(1 << 21), -53),
                          std::ldexp(static_cast<double>((1 << 21) + 1), -53),
                          std::ldexp(static_cast<double>(0x12345678ULL << 21), -53),
                          std::nextafter(1.0, 0.0),
                          0.5,
                          std::nextafter(0.5, 1.0)};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const double p : edges) {
      for (const std::uint64_t n : {0, 1, 3, 4, 5, 8, 33}) {
        expect_same_first_success(Pcg32(seed, seed % 3), p, n);
      }
    }
  }
}

TEST(Pcg32, FirstSuccessDecidesFirstDrawTiesByTheSecond) {
  // A tie — the first draw equals p*2^53's high 32 bits — happens once in
  // 2^32 trials, so build p around a known first draw: thresholds just
  // below, at and above the trial's 53-bit value, and the tie's extremes.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Pcg32 rng(seed, 5);
    Pcg32 peek = rng;
    const std::uint64_t hi = peek();
    const std::uint64_t lo = peek();
    const std::uint64_t u = (hi << 21) | (lo >> 11);
    for (const std::uint64_t t :
         {u, u + 1, u > 0 ? u - 1 : 0, hi << 21, (hi << 21) | ((1u << 21) - 1)}) {
      const double p = std::ldexp(static_cast<double>(t), -53);
      for (const std::uint64_t n : {1, 2, 4, 6}) {
        expect_same_first_success(rng, p, n);
      }
    }
  }
}

}  // namespace
}  // namespace flexnet
