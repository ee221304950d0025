#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analytic/fit.hpp"
#include "core/args.hpp"
#include "core/stats.hpp"

using namespace bsmp::core;
namespace analytic = bsmp::analytic;

namespace {
Args parse(std::initializer_list<const char*> argv,
           std::vector<std::string> flags = {}) {
  std::vector<const char*> v = {"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(v.size()), v.data(), flags);
}
}  // namespace

TEST(Args, SeparateAndEqualsForms) {
  auto a = parse({"--n", "256", "--m=8"});
  EXPECT_EQ(a.get_int("n", 0), 256);
  EXPECT_EQ(a.get_int("m", 0), 8);
  EXPECT_EQ(a.get_int("p", 4), 4);  // fallback
}

TEST(Args, FlagsDoNotConsumeValues) {
  auto a = parse({"--csv", "--n", "7"}, {"csv"});
  EXPECT_TRUE(a.get_flag("csv"));
  EXPECT_EQ(a.get_int("n", 0), 7);
  EXPECT_FALSE(a.get_flag("verify"));
}

TEST(Args, StringsDoublesPositionalsUnknown) {
  auto a = parse({"--scheme", "dc", "--ratio", "2.5", "input.txt",
                  "--mystery"});
  EXPECT_EQ(a.get_string("scheme", ""), "dc");
  EXPECT_DOUBLE_EQ(a.get_double("ratio", 0.0), 2.5);
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "input.txt");
  ASSERT_EQ(a.unknown().size(), 1u);
  EXPECT_EQ(a.unknown()[0], "mystery");
}

TEST(Args, TypeErrorsThrow) {
  auto a = parse({"--n", "abc"});
  EXPECT_THROW(a.get_int("n", 0), bsmp::precondition_error);
  auto b = parse({"--x", "1.5zz"});
  EXPECT_THROW(b.get_double("x", 0), bsmp::precondition_error);
  // Empty and out-of-range values must not read as 0, INT64_MAX or inf.
  auto c = parse({"--n=", "--m=99999999999999999999999", "--f=1e999", "--g="});
  EXPECT_THROW(c.get_int("n", 7), bsmp::precondition_error);
  EXPECT_THROW(c.get_int("m", 7), bsmp::precondition_error);
  EXPECT_THROW(c.get_double("f", 7), bsmp::precondition_error);
  EXPECT_THROW(c.get_double("g", 7), bsmp::precondition_error);
}

TEST(ParseInt, StrictAndNamesTheVariable) {
  using bsmp::core::parse_int;
  EXPECT_EQ(parse_int("0", "K"), 0);
  EXPECT_EQ(parse_int("16", "K"), 16);
  EXPECT_EQ(parse_int("-5", "K"), -5);
  EXPECT_EQ(parse_int("9223372036854775807", "K"), INT64_MAX);
  EXPECT_EQ(parse_int("1024", "K", 0), 1024);
  // Each of these used to read as a number somewhere: "4x" as 4, "abc"
  // and "" as 0, "-5" as 0 or as 2^64 - 5, an overflow as INT64_MAX.
  for (const char* bad : {"4x", "abc", "", " ", "1.5", "0x10",
                          "99999999999999999999999", "-"}) {
    EXPECT_THROW(parse_int(bad, "BSMP_PARALLEL_GRAIN"),
                 bsmp::precondition_error)
        << "'" << bad << "'";
  }
  EXPECT_THROW(parse_int("-5", "BSMP_PLAN_CACHE_BYTES", 0),
               bsmp::precondition_error);
  EXPECT_THROW(parse_int("-1", "BSMP_RELOC_GRAIN", 0),
               bsmp::precondition_error);
  // An unset knob reads as its fallback.
  EXPECT_EQ(bsmp::core::env_count("BSMP_TEST_KNOB_NEVER_SET", 7), 7);
  try {
    parse_int("abc", "BSMP_TRACE_BUFFER", 0);
    ADD_FAILURE() << "expected a throw";
  } catch (const bsmp::precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("BSMP_TRACE_BUFFER"),
              std::string::npos)
        << e.what();
  }
  try {
    parse_int("-5", "BSMP_PLAN_CACHE_BYTES", 0);
    ADD_FAILURE() << "expected a throw";
  } catch (const bsmp::precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("BSMP_PLAN_CACHE_BYTES"),
              std::string::npos)
        << e.what();
  }
}

TEST(Args, HasDistinguishesPresence) {
  auto a = parse({"--n", "1"}, {"csv"});
  EXPECT_TRUE(a.has("n"));
  EXPECT_FALSE(a.has("csv"));
  auto b = parse({"--csv"}, {"csv"});
  EXPECT_TRUE(b.has("csv"));
}

TEST(Stats, MomentsAndExtremes) {
  RunningStats s;
  for (double v : {2.0, 8.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 14.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.geomean(), 4.0, 1e-12);  // (2*8*4)^(1/3)
  EXPECT_DOUBLE_EQ(s.spread(), 4.0);
}

TEST(Stats, EmptyAndNonFinite) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_THROW(s.add(std::nan("")), bsmp::precondition_error);
}

TEST(Fit, RecoversExactLinearCombination) {
  // y = 3*a + 0.5*b + 7*c exactly.
  std::vector<std::array<double, 3>> x;
  std::vector<double> y;
  for (double a = 1; a <= 5; ++a)
    for (double b = 1; b <= 2; ++b) {
      double c = a * b;
      x.push_back({a, b, c});
      y.push_back(3 * a + 0.5 * b + 7 * c);
    }
  auto coef = analytic::fit_least_squares<3>(x, y);
  EXPECT_NEAR(coef[0], 3.0, 1e-6);
  EXPECT_NEAR(coef[1], 0.5, 1e-6);
  EXPECT_NEAR(coef[2], 7.0, 1e-6);
  EXPECT_NEAR(analytic::fit_r2<3>(x, y, coef), 1.0, 1e-9);
}

TEST(Fit, ClampsNegativeCoefficients) {
  // y depends negatively on the second regressor; the fit must clamp
  // it to zero (mechanism constants are physically non-negative).
  std::vector<std::array<double, 2>> x;
  std::vector<double> y;
  for (double a = 1; a <= 8; ++a) {
    x.push_back({a, 9 - a});
    y.push_back(2 * a);
  }
  auto coef = analytic::fit_least_squares<2>(x, y);
  EXPECT_GE(coef[0], 0.0);
  EXPECT_GE(coef[1], 0.0);
}

TEST(Fit, RejectsUnderdeterminedInput) {
  std::vector<std::array<double, 3>> x = {{1, 2, 3}};
  std::vector<double> y = {1};
  EXPECT_THROW((analytic::fit_least_squares<3>(x, y)),
               bsmp::precondition_error);
}
