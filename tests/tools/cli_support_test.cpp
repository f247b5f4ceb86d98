#include "../../tools/cli_support.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace optiplet::cli {
namespace {

/// The error a parse action returns for `text`, or "ok".
std::string run(const OptionSet::Parse& parse, const std::string& text) {
  const std::optional<std::string> error = parse(text);
  return error ? *error : "ok";
}

TEST(CliNumbers, PositiveCountRejectsZeroNegativeFractionAndJunk) {
  unsigned out = 7;
  const auto parse = store_number(out, "max batch", kPositive);
  EXPECT_EQ(run(parse, "0"), "bad max batch: 0");
  EXPECT_EQ(run(parse, "-1"), "bad max batch: -1");
  EXPECT_EQ(run(parse, "1.5"), "bad max batch: 1.5");
  EXPECT_EQ(run(parse, "inf"), "bad max batch: inf");
  EXPECT_EQ(run(parse, "8x"), "bad max batch: 8x");
  EXPECT_EQ(out, 7u);
  EXPECT_EQ(run(parse, "16"), "ok");
  EXPECT_EQ(out, 16u);
  EXPECT_EQ(run(parse, "1e2"), "ok");
  EXPECT_EQ(out, 100u);
}

TEST(CliNumbers, NonNegativeCountAcceptsZero) {
  std::uint64_t out = 42;
  const auto parse = store_number(out, "seed", kNonNegative);
  EXPECT_EQ(run(parse, "-1"), "bad seed: -1");
  EXPECT_EQ(run(parse, "nan"), "bad seed: nan");
  EXPECT_EQ(out, 42u);
  EXPECT_EQ(run(parse, "0"), "ok");
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(run(parse, "9173"), "ok");
  EXPECT_EQ(out, 9173u);
}

TEST(CliNumbers, AnyDoubleRejectsOnlyNonFiniteAndJunk) {
  double out = 1.0;
  const auto parse = store_number(out, "value for --rate", kFinite);
  EXPECT_EQ(run(parse, "inf"), "bad value for --rate: inf");
  EXPECT_EQ(run(parse, "nan"), "bad value for --rate: nan");
  EXPECT_EQ(run(parse, "1e3x"), "bad value for --rate: 1e3x");
  EXPECT_EQ(run(parse, ""), "bad value for --rate: ");
  EXPECT_EQ(out, 1.0);
  EXPECT_EQ(run(parse, "-5"), "ok");
  EXPECT_EQ(out, -5.0);
  EXPECT_EQ(run(parse, "0"), "ok");
  EXPECT_EQ(out, 0.0);
}

TEST(CliNumbers, NonNegativeDoubleAcceptsZero) {
  double out = 1.0;
  const auto parse = store_number(out, "think time", kNonNegative);
  EXPECT_EQ(run(parse, "-1e-9"), "bad think time: -1e-9");
  EXPECT_EQ(run(parse, "-inf"), "bad think time: -inf");
  EXPECT_EQ(out, 1.0);
  EXPECT_EQ(run(parse, "0"), "ok");
  EXPECT_EQ(out, 0.0);
  EXPECT_EQ(run(parse, "2.5e-4"), "ok");
  EXPECT_EQ(out, 2.5e-4);
}

TEST(CliNumbers, PositiveDoubleRejectsZero) {
  double out = 1.0;
  const auto parse = store_number(out, "link length", kPositive);
  EXPECT_EQ(run(parse, "0"), "bad link length: 0");
  EXPECT_EQ(run(parse, "-0.25"), "bad link length: -0.25");
  EXPECT_EQ(run(parse, "nan"), "bad link length: nan");
  EXPECT_EQ(out, 1.0);
  EXPECT_EQ(run(parse, "0.5"), "ok");
  EXPECT_EQ(out, 0.5);
}

TEST(CliNumbers, PositiveCountListNamesTheBadEntry) {
  std::vector<std::size_t> out;
  const auto parse = append_numbers(out, "batch size", kPositive);
  EXPECT_EQ(run(parse, "1,8"), "ok");
  EXPECT_EQ(out, (std::vector<std::size_t>{1, 8}));
  EXPECT_EQ(run(parse, "4,0"), "bad batch size: 0");
  EXPECT_EQ(run(parse, "2.5"), "bad batch size: 2.5");
  EXPECT_EQ(run(parse, "-3"), "bad batch size: -3");
  EXPECT_EQ(run(parse, "3,,4"), "bad batch size: ");
}

TEST(CliNumbers, NonNegativeCountListAcceptsZero) {
  std::vector<std::uint32_t> out;
  const auto parse = append_numbers(out, "decode tokens", kNonNegative);
  EXPECT_EQ(run(parse, "0,64"), "ok");
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 64}));
  EXPECT_EQ(run(parse, "-1"), "bad decode tokens: -1");
  EXPECT_EQ(run(parse, "x"), "bad decode tokens: x");
}

TEST(CliNumbers, PositiveDoubleListRejectsZeroAndNonFinite) {
  std::vector<double> out;
  const auto parse = append_numbers(out, "arrival rate", kPositive);
  EXPECT_EQ(run(parse, "200,2.5e3"), "ok");
  EXPECT_EQ(out, (std::vector<double>{200.0, 2500.0}));
  EXPECT_EQ(run(parse, "0"), "bad arrival rate: 0");
  EXPECT_EQ(run(parse, "-200"), "bad arrival rate: -200");
  EXPECT_EQ(run(parse, "inf"), "bad arrival rate: inf");
  EXPECT_EQ(run(parse, "1e999"), "bad arrival rate: 1e999");
}

TEST(CliNumbers, IntegersThatDoNotFitTheDestinationAreRejected) {
  unsigned users = 16;
  const auto parse = store_number(users, "user count", kPositive);
  EXPECT_EQ(run(parse, "4294967297"), "bad user count: 4294967297");
  EXPECT_EQ(run(parse, "1e20"), "bad user count: 1e20");
  EXPECT_EQ(users, 16u);
  EXPECT_EQ(run(parse, "4294967295"), "ok");
  EXPECT_EQ(users, 4294967295u);
  std::vector<std::uint32_t> tokens;
  EXPECT_EQ(run(append_numbers(tokens, "decode tokens", kNonNegative),
                "4294967296"),
            "bad decode tokens: 4294967296");
}

TEST(CliNumbers, ThreadCountKeepsItsHint) {
  std::size_t out = 0;
  const auto parse = store_threads(out);
  EXPECT_EQ(run(parse, "0"),
            "bad thread count: 0 (need a positive integer; omit the flag "
            "for hardware concurrency)");
  EXPECT_EQ(run(parse, "3"), "ok");
  EXPECT_EQ(out, 3u);
}

TEST(CliNumbers, OptionSetReportsTheParseError) {
  unsigned batch = 8;
  OptionSet options("tool", "tool — test");
  options.add("--max-batch", "K", "batch bound",
              store_number(batch, "max batch", kPositive));
  char arg0[] = "tool";
  char flag[] = "--max-batch=0";
  char* argv[] = {arg0, flag};
  testing::internal::CaptureStderr();
  EXPECT_EQ(options.parse(2, argv), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "tool: bad max batch: 0\nRun with --help for usage.\n");
  EXPECT_EQ(batch, 8u);
}

}  // namespace
}  // namespace optiplet::cli
