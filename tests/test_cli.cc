// The shared command-line contract (common/cli.h): values by name, and the
// exit codes every bench and example inherits.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cli.h"

namespace hetis::cli {
namespace {

Parser demo() {
  return Parser("demo")
      .flag("--csv", "rows instead of the table")
      .option("--rate", "R", "req/s")
      .option("--requests", "N", "trace length")
      .option("--jobs", "N", "workers")
      .option("--tolerance", "F", "slack")
      .option("--out", "PATH", "artifact")
      .positional("model", "model name")
      .rest("gpu=count", "devices");
}

Args parse(const std::vector<const char*>& words) {
  std::vector<const char*> argv = {"demo"};
  argv.insert(argv.end(), words.begin(), words.end());
  return demo().parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ReadsFlagsAndPositionalsByName) {
  const Args args = parse({"Llama-13B", "--rate", "2.5", "A100=2", "--csv", "--out", "-",
                           "--jobs", "0", "3090=4", "--requests", "100000"});
  EXPECT_TRUE(args.has("--csv"));
  EXPECT_EQ(args.text("model", "x"), "Llama-13B");
  EXPECT_DOUBLE_EQ(args.positive("--rate", 1.0), 2.5);
  EXPECT_EQ(args.text("--out", "BENCH.json"), "-");
  EXPECT_EQ(args.jobs(1), 0);
  EXPECT_EQ(args.count("--requests", 1), 100000u);
  EXPECT_EQ(args.rest(), (std::vector<std::string>{"A100=2", "3090=4"}));
}

TEST(Cli, AbsentValuesFallBackAndRepeatsKeepTheLast) {
  const Args none = parse({});
  EXPECT_FALSE(none.has("--csv"));
  EXPECT_EQ(none.text("model", "Llama-70B"), "Llama-70B");
  EXPECT_DOUBLE_EQ(none.positive("--rate", 4.0), 4.0);
  EXPECT_DOUBLE_EQ(none.non_negative("--tolerance", 0.05), 0.05);
  EXPECT_EQ(none.count("--requests", 7), 7u);
  EXPECT_EQ(none.jobs(3), 3);
  EXPECT_TRUE(none.rest().empty());
  const Args twice = parse({"--rate", "1", "--rate", "2"});
  EXPECT_DOUBLE_EQ(twice.positive("--rate", 4.0), 2.0);
  EXPECT_DOUBLE_EQ(parse({"--tolerance", "0"}).non_negative("--tolerance", 1.0), 0.0);
}

TEST(Cli, UsageListsEveryDeclaration) {
  const std::string usage = demo().usage();
  EXPECT_EQ(usage.rfind("usage: demo [--csv] [--rate R] [--requests N] [--jobs N] "
                        "[--tolerance F] [--out PATH] [model] [gpu=count ...]\n",
                        0),
            0u)
      << usage;
  EXPECT_NE(usage.find("  --help"), std::string::npos) << usage;
}

TEST(Cli, ToCountTakesDigitsOnly) {
  EXPECT_EQ(to_count("12"), 12u);
  for (const char* bad : {"", "0", "2x", "-3", "+3", "1.5", " 4", "99999999999999999999"}) {
    EXPECT_FALSE(to_count(bad).has_value()) << bad;
  }
}

TEST(CliDeathTest, HelpPrintsUsageAndExitsZero) {
  EXPECT_EXIT(parse({"abc", "--help"}), testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, MalformedCommandLinesExitTwoWithTheUsage) {
  EXPECT_EXIT(parse({"--bogus"}), testing::ExitedWithCode(2), "unknown flag '--bogus'");
  EXPECT_EXIT(parse({"--rate"}), testing::ExitedWithCode(2), "missing value for '--rate'");
  const char* extra[] = {"bare", "1", "2"};
  EXPECT_EXIT(Parser("bare").positional("rate", "req/s").parse(3, extra),
              testing::ExitedWithCode(2), "bare: unexpected argument '2'\nusage: bare");
  for (const char* bad : {"abc", "nan", "inf", "-3", "0", "2x", ""}) {
    EXPECT_EXIT(parse({"--rate", bad}).positive("--rate", 1.0), testing::ExitedWithCode(2),
                "demo: --rate expects a positive number")
        << bad;
  }
  EXPECT_EXIT(parse({"--tolerance", "-0.1"}).non_negative("--tolerance", 1.0),
              testing::ExitedWithCode(2), "expects a non-negative number");
  for (const char* bad : {"1.5", "0", "-5", "abc"}) {
    EXPECT_EXIT(parse({"--requests", bad}).count("--requests", 1), testing::ExitedWithCode(2),
                "--requests expects a positive integer")
        << bad;
  }
  for (const char* bad : {"1.5", "-1", "abc", "99999999999"}) {
    EXPECT_EXIT(parse({"--jobs", bad}).jobs(1), testing::ExitedWithCode(2),
                "--jobs expects a non-negative integer")
        << bad;
  }
  EXPECT_EXIT(parse({}).fail("unknown model 'x'"), testing::ExitedWithCode(2),
              "demo: unknown model 'x'\nusage: demo");
}

}  // namespace
}  // namespace hetis::cli
