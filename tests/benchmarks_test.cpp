#include "benchmarks/epfl.hpp"
#include "benchmarks/iscas.hpp"
#include "benchmarks/suite.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "benchmarks/argparse.hpp"
#include "benchmarks/arith.hpp"
#include "network/simulation.hpp"

namespace t1sfq {
namespace {

using bench::BenchmarkCase;

/// Checks a generator against its reference model on random vectors.
void check_case(const BenchmarkCase& c, unsigned vectors, uint64_t seed) {
  const Network net = c.generate();
  std::mt19937_64 rng(seed);
  for (unsigned i = 0; i < vectors; ++i) {
    std::vector<bool> in(net.num_pis());
    for (auto&& b : in) {
      b = rng() & 1;
    }
    const auto expect = c.reference(in);
    const auto got = simulate(net, in);
    ASSERT_EQ(got.size(), expect.size()) << c.name;
    EXPECT_EQ(got, expect) << c.name << " vector " << i;
  }
}

TEST(Benchmarks, AdderMatchesReference) {
  check_case(bench::make_suite_scaled(4)[0], 100, 11);
}

TEST(Benchmarks, C7552MatchesReference) {
  check_case(bench::make_suite_scaled(4)[1], 100, 12);
}

TEST(Benchmarks, C6288MatchesReference) {
  check_case(bench::make_suite_scaled(4)[2], 100, 13);
}

TEST(Benchmarks, SinMatchesReference) {
  check_case(bench::make_suite_scaled(2)[3], 100, 14);
}

TEST(Benchmarks, VoterMatchesReference) {
  check_case(bench::make_suite_scaled(8)[4], 100, 15);
}

TEST(Benchmarks, SquareMatchesReference) {
  check_case(bench::make_suite_scaled(4)[5], 100, 16);
}

TEST(Benchmarks, MultiplierMatchesReference) {
  check_case(bench::make_suite_scaled(4)[6], 100, 17);
}

TEST(Benchmarks, Log2MatchesReference) {
  check_case(bench::make_suite_scaled(2)[7], 100, 18);
}

TEST(Benchmarks, AdderFullWidthSpotCheck) {
  // The real 128-bit Table-I adder on a few vectors (word-parallel 64-wide).
  const Network net = bench::epfl_adder(128);
  EXPECT_EQ(net.num_pis(), 256u);
  EXPECT_EQ(net.num_pos(), 129u);
  std::mt19937_64 rng(19);
  std::vector<bool> in(256);
  for (auto&& b : in) {
    b = rng() & 1;
  }
  const auto got = simulate(net, in);
  EXPECT_EQ(got, bench::epfl_adder_ref(128, in));
}

TEST(Benchmarks, SinIsMonotoneOnQuarterWave) {
  // sin on [0, pi/2) is increasing; the fixed-point network must be
  // non-decreasing over increasing inputs.
  const unsigned bits = 8;
  const Network net = bench::epfl_sin(bits);
  uint64_t prev = 0;
  for (uint64_t x = 0; x < 256; x += 5) {
    const uint64_t y = word_to_uint(simulate(net, uint_to_word(x, bits)));
    // Truncating products can jitter by a couple of LSBs near the crest.
    EXPECT_GE(y + 2, prev) << "x=" << x;
    prev = y;
  }
}

TEST(Benchmarks, SinApproximatesTheRealThing) {
  const unsigned bits = 10;
  const Network net = bench::epfl_sin(bits);
  for (uint64_t x = 0; x < (1u << bits); x += 37) {
    const double theta = (static_cast<double>(x) / (1 << bits)) * 1.5707963267948966;
    const double y = static_cast<double>(word_to_uint(simulate(net, uint_to_word(x, bits)))) /
                     (1 << bits);
    EXPECT_NEAR(y, std::sin(theta), 0.02) << "x=" << x;
  }
}

TEST(Benchmarks, Log2ExactOnPowersOfTwo) {
  const unsigned bits = 16, frac = 8;
  const Network net = bench::epfl_log2(bits, frac);
  for (unsigned p = 0; p < bits; ++p) {
    const auto out = simulate(net, uint_to_word(uint64_t{1} << p, bits));
    // Integer part = p, fraction = 0.
    EXPECT_EQ(word_to_uint({out.begin(), out.begin() + 4}), p);
    EXPECT_EQ(word_to_uint({out.begin() + 4, out.end()}), 0u);
  }
}

TEST(Benchmarks, Log2ZeroInputYieldsZero) {
  const Network net = bench::epfl_log2(8, 4);
  const auto out = simulate(net, uint_to_word(0, 8));
  for (const bool b : out) {
    EXPECT_FALSE(b);
  }
}

TEST(Benchmarks, Log2FractionApproximatesMath) {
  const unsigned bits = 12, frac = 6;
  const Network net = bench::epfl_log2(bits, frac);
  for (uint64_t x : {3ull, 7ull, 100ull, 1000ull, 4095ull}) {
    const auto out = simulate(net, uint_to_word(x, bits));
    const unsigned ibits = 4;  // ceil(log2(12))
    const double ipart = static_cast<double>(word_to_uint({out.begin(), out.begin() + ibits}));
    const double fpart =
        static_cast<double>(word_to_uint({out.begin() + ibits, out.end()})) / (1 << frac);
    EXPECT_NEAR(ipart + fpart, std::log2(static_cast<double>(x)), 0.02) << "x=" << x;
  }
}

TEST(Benchmarks, VoterThreshold) {
  const unsigned n = 15;
  const Network net = bench::epfl_voter(n);
  for (unsigned ones = 0; ones <= n; ++ones) {
    std::vector<bool> in(n, false);
    for (unsigned i = 0; i < ones; ++i) {
      in[i] = true;
    }
    EXPECT_EQ(simulate(net, in)[0], ones >= n / 2 + 1) << ones << " ones";
  }
}

TEST(Benchmarks, SuiteHasEightTableRows) {
  const auto suite = bench::make_suite();
  ASSERT_EQ(suite.size(), 8u);
  EXPECT_EQ(suite[0].name, "adder");
  EXPECT_EQ(suite[1].name, "c7552");
  EXPECT_EQ(suite[2].name, "c6288");
  EXPECT_EQ(suite[3].name, "sin");
  EXPECT_EQ(suite[4].name, "voter");
  EXPECT_EQ(suite[5].name, "square");
  EXPECT_EQ(suite[6].name, "multiplier");
  EXPECT_EQ(suite[7].name, "log2");
}

TEST(Benchmarks, ScaledSuiteKeepsOddVoter) {
  for (unsigned s : {2u, 4u, 8u, 16u}) {
    const auto suite = bench::make_suite_scaled(s);
    const Network voter = suite[4].generate();
    EXPECT_EQ(voter.num_pis() % 2, 1u) << "shrink " << s;
  }
}

TEST(Benchmarks, GeneratorsAreDeterministic) {
  const auto a = bench::epfl_multiplier(8);
  const auto b = bench::epfl_multiplier(8);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_TRUE(random_simulation_equal(a, b, 2));
}

TEST(Benchmarks, SquareSharesPartialProducts) {
  // a*a through the generic multiplier still shares and-gates (a_i & a_j).
  const Network sq = bench::epfl_square(8);
  const Network mult = bench::epfl_multiplier(8);
  EXPECT_LT(sq.count_of(GateType::And2) + 2 * sq.num_pis(),
            mult.count_of(GateType::And2) + mult.num_pis());
}

// ---------------------------------------------------------------------------
// ArgParser
// ---------------------------------------------------------------------------

/// Runs \p parser over \p args, with a program name prepended.
bool parse(const bench::ArgParser& parser, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return parser.parse(static_cast<int>(argv.size()), argv.data());
}

/// Like parse(), but expects a failure that prints the usage to stderr.
void expect_rejected(const bench::ArgParser& parser, std::vector<std::string> args) {
  testing::internal::CaptureStderr();
  const bool ok = parse(parser, args);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok) << args.front();
  EXPECT_NE(err.find("usage: prog"), std::string::npos) << err;
}

TEST(ArgParser, RejectsMalformedNumbersAndTrailingGarbage) {
  unsigned u = 7;
  uint64_t u64 = 7;
  std::size_t size = 7;
  double d = 0.5;
  bench::ArgParser parser("prog");
  parser.uint_opt("--u", &u, "N", "")
      .u64_opt("--u64", &u64, "N", "")
      .size_opt("--size", &size, "N", "")
      .double_opt("--d", &d, "F", "");
  for (const char* flag : {"--u", "--u64", "--size", "--d"}) {
    for (const char* bad : {"abc", "0.x", "12k"}) {
      expect_rejected(parser, {flag, bad});
    }
  }
  // A count never wraps a minus sign around, nor truncates past its range.
  for (const char* flag : {"--u", "--u64", "--size"}) {
    expect_rejected(parser, {flag, "-1"});
  }
  expect_rejected(parser, {"--u", "4294967296"});
  // A rejected value leaves its target untouched.
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(u64, 7u);
  EXPECT_EQ(size, 7u);
  EXPECT_EQ(d, 0.5);

  ASSERT_TRUE(parse(parser, {"--u", "12", "--u64", "13", "--size", "14", "--d", "-0.25"}));
  EXPECT_EQ(u, 12u);
  EXPECT_EQ(u64, 13u);
  EXPECT_EQ(size, 14u);
  EXPECT_EQ(d, -0.25);
}

TEST(ArgParser, RejectsUnknownFlagAndMissingValue) {
  unsigned u = 0;
  bool on = false;
  bench::ArgParser parser("prog");
  parser.uint_opt("--u", &u, "N", "").flag("--on", &on, "");
  expect_rejected(parser, {"--nope"});
  expect_rejected(parser, {"--on", "--nope"});
  expect_rejected(parser, {"--u"});  // the value is missing
  ASSERT_TRUE(parse(parser, {"--on", "--u", "3"}));
  EXPECT_TRUE(on);
  EXPECT_EQ(u, 3u);
}

TEST(ArgParser, HelpReturnsFalse) {
  bool on = false;
  bench::ArgParser parser("prog");
  parser.flag("--on", &on, "");
  testing::internal::CaptureStdout();
  EXPECT_FALSE(parse(parser, {"--help"}));
  EXPECT_NE(testing::internal::GetCapturedStdout().find("usage: prog"), std::string::npos);
  EXPECT_FALSE(on);
}

TEST(ArgParser, UintListRejectsNegativeItems) {
  std::vector<unsigned> points{1};
  bench::ArgParser parser("prog");
  parser.uint_list("--points", &points, "N,N", "");
  expect_rejected(parser, {"--points", "1000,-2000"});
  EXPECT_EQ(points, std::vector<unsigned>{1});
  ASSERT_TRUE(parse(parser, {"--points", "1000,2000"}));
  EXPECT_EQ(points, (std::vector<unsigned>{1000, 2000}));
}

TEST(ArgParser, RepeatedStringOptionKeepsEveryValueInOrder) {
  std::vector<std::string> files;
  std::string db;
  bench::ArgParser parser("prog");
  parser.repeated_string_opt("--from", &files, "path", "")
      .repeated_string_opt("--current", &files, "path", "")
      .string_opt("--db", &db, "path", "");
  ASSERT_TRUE(parse(parser, {"--from", "a.json", "--db", "h.jsonl", "--current", "b.json",
                             "--from", "a.json"}));
  EXPECT_EQ(files, (std::vector<std::string>{"a.json", "b.json", "a.json"}));
  EXPECT_EQ(db, "h.jsonl");
}

}  // namespace
}  // namespace t1sfq
