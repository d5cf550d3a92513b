// Unit tests for the common utilities: PRNG, half-float, statistics,
// tables, CLI parsing and contract checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/chart.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "common/parallel_for.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace gaurast {
namespace {

// ---------------------------------------------------------------- PRNG --

TEST(Pcg32, DeterministicForSameSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, DifferentSeedsDiverge) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 3);
}

TEST(Pcg32, UniformInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Pcg32, UniformRangeRespectsBounds) {
  Pcg32 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Pcg32, NextBelowUnbiasedSmallBound) {
  Pcg32 rng(11);
  int counts[5] = {0, 0, 0, 0, 0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(Pcg32, NextBelowRejectsZero) {
  Pcg32 rng(1);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Pcg32, NormalMomentsMatch) {
  Pcg32 rng(13);
  const int n = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 3.0, 0.1);
}

TEST(Pcg32, LognormalIsPositive) {
  Pcg32 rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(-1.0, 0.8), 0.0);
}

TEST(Pcg32, ExponentialMeanMatchesRate) {
  Pcg32 rng(19);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Pcg32, ExponentialRejectsNonPositiveRate) {
  Pcg32 rng(1);
  EXPECT_THROW(rng.exponential(0.0), Error);
  EXPECT_THROW(rng.exponential(-1.0), Error);
}

TEST(Pcg32, SkipNormalsMatchesDrawingThem) {
  // Both Box-Muller cache states: a fresh generator has no cached variate,
  // one normal() later it has one.
  for (const int primed : {0, 1}) {
    for (std::uint64_t k = 0; k <= 100; ++k) {
      Pcg32 drawn(31 + k);
      for (int i = 0; i < primed; ++i) (void)drawn.normal();
      Pcg32 skipped = drawn;
      for (std::uint64_t i = 0; i < k; ++i) (void)drawn.normal();
      skipped.skip_normals(k);
      Pcg32 drawn_u32 = drawn;
      Pcg32 skipped_u32 = skipped;
      for (int i = 0; i < 16; ++i) {
        ASSERT_EQ(drawn.normal(), skipped.normal())
            << "primed " << primed << ", k " << k << ", normal " << i;
        ASSERT_EQ(drawn_u32.next_u32(), skipped_u32.next_u32())
            << "primed " << primed << ", k " << k << ", u32 " << i;
      }
    }
  }
}

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 mix(0);
  const std::uint64_t a = mix.next();
  const std::uint64_t b = mix.next();
  EXPECT_NE(a, b);
  SplitMix64 mix2(0);
  EXPECT_EQ(mix2.next(), a);
  EXPECT_EQ(mix2.next(), b);
}

// ---------------------------------------------------------------- Half --

// The branchy conversions common/half.hpp replaced with branch-free ones,
// kept as the oracle of the exhaustive sweeps below.
std::uint16_t reference_float_to_half_bits(float value) {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::int32_t exponent =
      static_cast<std::int32_t>((f >> 23) & 0xFFu) - 127 + 15;
  std::uint32_t mantissa = f & 0x7FFFFFu;

  if (((f >> 23) & 0xFFu) == 0xFFu) {
    // Inf or NaN. Preserve NaN-ness by forcing a mantissa bit.
    const std::uint16_t nan_payload =
        mantissa != 0 ? static_cast<std::uint16_t>(0x0200u | (mantissa >> 13))
                      : static_cast<std::uint16_t>(0);
    return static_cast<std::uint16_t>(sign | 0x7C00u | nan_payload);
  }

  if (exponent >= 0x1F) {
    // Overflow -> infinity.
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  if (exponent <= 0) {
    // Subnormal half or zero.
    if (exponent < -10) return static_cast<std::uint16_t>(sign);  // underflow
    // Add implicit bit, then shift into subnormal position.
    mantissa |= 0x800000u;
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - exponent);
    std::uint32_t half_mant = mantissa >> shift;
    // Round to nearest even.
    const std::uint32_t rem = mantissa & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    return static_cast<std::uint16_t>(sign | half_mant);
  }

  // Normal case: round mantissa from 23 to 10 bits, to nearest even.
  std::uint32_t half_mant = mantissa >> 13;
  const std::uint32_t rem = mantissa & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half_mant & 1u))) {
    ++half_mant;
    if (half_mant == 0x400u) {
      // Mantissa overflow bumps the exponent.
      half_mant = 0;
      if (exponent + 1 >= 0x1F)
        return static_cast<std::uint16_t>(sign | 0x7C00u);
      return static_cast<std::uint16_t>(
          sign | (static_cast<std::uint32_t>(exponent + 1) << 10));
    }
  }
  return static_cast<std::uint16_t>(
      sign | (static_cast<std::uint32_t>(exponent) << 10) | half_mant);
}

float reference_half_bits_to_float(std::uint16_t bits) {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t exponent = (bits >> 10) & 0x1Fu;
  std::uint32_t mantissa = bits & 0x3FFu;

  if (exponent == 0x1Fu) {
    // Inf / NaN.
    return std::bit_cast<float>(sign | 0x7F800000u | (mantissa << 13));
  }
  if (exponent == 0) {
    if (mantissa == 0) return std::bit_cast<float>(sign);  // signed zero
    // Subnormal: normalize.
    std::int32_t e = -1;
    do {
      ++e;
      mantissa <<= 1;
    } while ((mantissa & 0x400u) == 0);
    mantissa &= 0x3FFu;
    const std::uint32_t f_exp = static_cast<std::uint32_t>(127 - 15 - e);
    return std::bit_cast<float>(sign | (f_exp << 23) | (mantissa << 13));
  }
  const std::uint32_t f_exp = exponent - 15 + 127;
  return std::bit_cast<float>(sign | (f_exp << 23) | (mantissa << 13));
}

TEST(Half, FloatToHalfMatchesReferenceForEveryFloat) {
  // All 2^32 bit patterns, NaN payloads included, split across the cores.
  const std::size_t workers = common::parallel_width();
  std::vector<std::uint64_t> mismatches(workers, 0);
  std::vector<std::uint32_t> first_mismatch(workers, 0);
  common::parallel_for_workers(workers, [&](std::size_t w) {
    const std::uint64_t total = std::uint64_t{1} << 32;
    const std::uint64_t end = total * (w + 1) / workers;
    for (std::uint64_t i = total * w / workers; i < end; ++i) {
      const float f = std::bit_cast<float>(static_cast<std::uint32_t>(i));
      if (float_to_half_bits(f) != reference_float_to_half_bits(f) &&
          mismatches[w]++ == 0) {
        first_mismatch[w] = static_cast<std::uint32_t>(i);
      }
    }
  });
  for (std::size_t w = 0; w < workers; ++w) {
    EXPECT_EQ(mismatches[w], 0u)
        << "first mismatch at float bits 0x" << std::hex << first_mismatch[w];
  }
}

TEST(Half, HalfToFloatMatchesReferenceForEveryHalf) {
  for (std::uint32_t i = 0; i <= 0xFFFFu; ++i) {
    const auto bits = static_cast<std::uint16_t>(i);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(half_bits_to_float(bits)),
              std::bit_cast<std::uint32_t>(reference_half_bits_to_float(bits)))
        << "half bits 0x" << std::hex << i;
  }
}

TEST(Half, RoundTripExactForRepresentableValues) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f, 65504.0f}) {
    EXPECT_EQ(round_to_half(v), v) << v;
  }
}

TEST(Half, OverflowGoesToInfinity) {
  const Half h(1e6f);
  EXPECT_TRUE(h.is_inf());
  EXPECT_GT(h.to_float(), 0.0f);
  const Half n(-1e6f);
  EXPECT_TRUE(n.is_inf());
  EXPECT_LT(n.to_float(), 0.0f);
}

TEST(Half, NanPropagates) {
  const Half h(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(h.is_nan());
  EXPECT_TRUE(std::isnan(h.to_float()));
}

TEST(Half, SubnormalsRepresented) {
  const float tiny = 1e-7f;  // below half's normal minimum (~6.1e-5)
  const float r = round_to_half(tiny);
  EXPECT_GE(r, 0.0f);
  EXPECT_LT(r, 1e-4f);
  // Smallest half subnormal is 2^-24 ~ 5.96e-8; tiny rounds to a multiple.
  EXPECT_NEAR(r, tiny, 6e-8f);
}

TEST(Half, UnderflowToZero) {
  EXPECT_EQ(round_to_half(1e-12f), 0.0f);
}

TEST(Half, RoundToNearestEven) {
  // 2049 is halfway between representable 2048 and 2050 -> rounds to 2048.
  EXPECT_EQ(round_to_half(2049.0f), 2048.0f);
  EXPECT_EQ(round_to_half(2051.0f), 2052.0f);
}

TEST(Half, ArithmeticRoundsThroughBinary16) {
  const Half a(0.1f), b(0.2f);
  const Half sum = a + b;
  EXPECT_NEAR(sum.to_float(), 0.3f, 1e-3f);
  EXPECT_EQ(sum.bits(), float_to_half_bits(a.to_float() + b.to_float()));
}

TEST(Half, SignedZeroPreserved) {
  EXPECT_EQ(float_to_half_bits(-0.0f), 0x8000u);
  EXPECT_EQ(float_to_half_bits(0.0f), 0x0000u);
}

class HalfRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(HalfRoundTripTest, BitPatternRoundTripsThroughFloat) {
  // Every finite half value converts to float and back to the same bits.
  const auto start = static_cast<std::uint16_t>(GetParam() * 4096);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const auto bits = static_cast<std::uint16_t>(start + i);
    if ((bits & 0x7C00u) == 0x7C00u && (bits & 0x3FFu) != 0) continue;  // NaN
    const float f = half_bits_to_float(bits);
    EXPECT_EQ(float_to_half_bits(f), bits) << "bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBlocks, HalfRoundTripTest,
                         ::testing::Range(0, 16));

// --------------------------------------------------------------- Stats --

TEST(Percentile, NearestRankOnSmallSample) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0,
                                      6.0, 7.0, 8.0, 9.0, 10.0};
  // Rank ceil(q * n): no interpolation between neighbours.
  EXPECT_EQ(percentile_sorted(sorted, 0.0), 1.0);
  EXPECT_EQ(percentile_sorted(sorted, 0.10), 1.0);
  EXPECT_EQ(percentile_sorted(sorted, 0.11), 2.0);
  EXPECT_EQ(percentile_sorted(sorted, 0.50), 5.0);
  EXPECT_EQ(percentile_sorted(sorted, 0.95), 10.0);
  EXPECT_EQ(percentile_sorted(sorted, 0.99), 10.0);
  EXPECT_EQ(percentile_sorted(sorted, 1.0), 10.0);
  EXPECT_EQ(percentile_sorted({7.5}, 0.5), 7.5);
  EXPECT_EQ(percentile_sorted({}, 0.5), 0.0);
  EXPECT_THROW(percentile_sorted(sorted, 1.5), Error);
}

TEST(SampleWindow, HoldsTheLastCapacitySamples) {
  ASSERT_EQ(SampleWindow::kCapacity, 65536u);
  SampleWindow window;
  for (int i = 0; i < 70000; ++i) window.add(static_cast<double>(i));
  EXPECT_EQ(window.size(), SampleWindow::kCapacity);
  // The 4464 oldest samples were overwritten by the newest ones.
  std::vector<double> sorted = window.samples();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted.front(), 70000.0 - 65536.0);
  EXPECT_EQ(sorted.back(), 69999.0);
}

// --------------------------------------------------------------- Table --

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.add_row({"xxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxx"), std::string::npos);
}

TEST(TablePrinter, RejectsMismatchedRow) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TablePrinter, CsvQuotesSpecialCells) {
  TablePrinter t({"name", "value"});
  t.add_row({"has,comma", "has\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(Format, FixedAndRatio) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_ratio(23.44), "23.4x");
}

TEST(Format, AdaptiveTimeUnits) {
  EXPECT_EQ(format_time_ms(0.01), "10.0 us");
  EXPECT_EQ(format_time_ms(5.0), "5.00 ms");
  EXPECT_EQ(format_time_ms(1500.0), "1.50 s");
}

TEST(Format, Percent) { EXPECT_EQ(format_percent(0.803), "80.3%"); }

// ----------------------------------------------------------------- CLI --

TEST(CliParser, ParsesEqualsAndSpaceForms) {
  CliParser cli("test");
  cli.add_flag("alpha", "1", "an int");
  cli.add_flag("beta", "x", "a string");
  const char* argv[] = {"prog", "--alpha=42", "--beta", "hello"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("alpha"), 42);
  EXPECT_EQ(cli.get_string("beta"), "hello");
}

TEST(CliParser, DefaultsApplyWhenAbsent) {
  CliParser cli("test");
  cli.add_flag("gamma", "2.5", "a double");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("gamma"), 2.5);
}

TEST(CliParser, BooleanSwitchWithoutValue) {
  CliParser cli("test");
  cli.add_flag("verbose", "false", "a bool");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(CliParser, UnknownFlagThrows) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(CliParser, MalformedNumberThrows) {
  CliParser cli("test");
  cli.add_flag("n", "0", "int");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW(cli.get_int("n"), Error);
}

TEST(CliParser, Uint64FullRangeAndRejections) {
  CliParser cli("test");
  cli.add_flag("seed", "42", "uint64");
  {
    const char* argv[] = {"prog", "--seed=18446744073709551615"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_EQ(cli.get_uint64("seed"), 18446744073709551615ull);
  }
  for (const char* bad :
       {"-1", " -1", "+3", "abc", "18446744073709551616", ""}) {
    CliParser p("test");
    p.add_flag("seed", bad, "uint64");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    EXPECT_THROW(p.get_uint64("seed"), CliParseError) << "value: " << bad;
  }
  CliParser zero("test");
  zero.add_flag("seed", "0", "uint64");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(zero.parse(1, argv));
  EXPECT_EQ(zero.get_uint64("seed"), 0u);  // 0 is a valid PRNG seed
}

TEST(CliParser, PositionalArgsCollected) {
  CliParser cli("test");
  const char* argv[] = {"prog", "file1", "file2"};
  ASSERT_TRUE(cli.parse(3, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
}

// --------------------------------------------------------------- Chart --

TEST(BarChart, RendersScaledBars) {
  BarChart chart("demo", "ms");
  chart.add_bar("a", 10.0);
  chart.add_bar("bb", 5.0);
  std::ostringstream os;
  chart.print(os, 20);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo [ms]"), std::string::npos);
  // The max bar fills the full width; the half bar roughly half.
  EXPECT_NE(out.find(std::string(20, '#')), std::string::npos);
  EXPECT_NE(out.find(std::string(10, '#')), std::string::npos);
}

TEST(BarChart, RejectsNegativeValues) {
  BarChart chart("bad");
  EXPECT_THROW(chart.add_bar("neg", -1.0), Error);
}

TEST(BarChart, EmptyAndZeroSafe) {
  BarChart chart("empty");
  std::ostringstream os;
  EXPECT_NO_THROW(chart.print(os));
  chart.add_bar("zero", 0.0);
  EXPECT_NO_THROW(chart.print(os));
}

// ------------------------------------------------------- Fork-join pool --

TEST(ParallelFor, EveryChunkRunsExactlyOnce) {
  for (const std::size_t chunks : {1, 2, 3, 4, 7, 64}) {
    std::vector<std::atomic<int>> runs(chunks);
    common::parallel_for_workers(chunks, [&](std::size_t c) {
      runs[c].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(runs[c].load(), 1) << "chunk " << c << " of " << chunks;
    }
  }
}

TEST(ParallelFor, NestedCallCompletes) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 5;
  std::vector<std::atomic<int>> runs(kOuter * kInner);
  common::parallel_for_workers(kOuter, [&](std::size_t outer) {
    common::parallel_for_workers(kInner, [&](std::size_t inner) {
      runs[outer * kInner + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ParallelFor, CallReturnsWhileEveryPoolThreadIsHeld) {
  // One call holds the caller and every pool thread in 500 ms chunks. A
  // second call must not wait for them: it runs its own chunks.
  using Clock = std::chrono::steady_clock;
  const std::size_t width = common::parallel_width();
  std::atomic<std::size_t> held{0};
  std::thread holder([&] {
    common::parallel_for_workers(width, [&](std::size_t) {
      held.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    });
  });
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (held.load() < width && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(held.load(), width);

  std::vector<int> runs(4, 0);
  const Clock::time_point start = Clock::now();
  common::parallel_for_workers(runs.size(),
                               [&](std::size_t c) { ++runs[c]; });
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  holder.join();
  EXPECT_EQ(runs, std::vector<int>(4, 1));
  EXPECT_LT(ms, 250.0);
}

std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), std::filesystem::directory_iterator{}));
}

TEST(ParallelFor, CallsStartNoThreads) {
  std::atomic<int> sum{0};
  const auto call = [&] {
    common::parallel_for_workers(4, [&](std::size_t c) {
      sum.fetch_add(static_cast<int>(c), std::memory_order_relaxed);
    });
  };
  call();  // starts the pool
  const std::size_t before = live_threads();
  std::size_t most = 0;
  for (int i = 0; i < 100; ++i) {
    common::parallel_for_workers(4, [&](std::size_t c) {
      if (c == 0) most = std::max(most, live_threads());
    });
    call();
  }
  EXPECT_EQ(live_threads(), before);
  EXPECT_EQ(most, before) << "a call ran with more threads than the pool";
  EXPECT_EQ(sum.load(), 101 * 6);
}

// --------------------------------------------------------------- Error --

TEST(Check, ThrowsWithExpressionText) {
  try {
    GAURAST_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesQuietly) {
  EXPECT_NO_THROW(GAURAST_CHECK(2 + 2 == 4));
}

}  // namespace
}  // namespace gaurast
