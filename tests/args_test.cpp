// Unit tests for the command-line flag parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/args.h"

namespace itree {
namespace {

ArgParser make_parser() {
  ArgParser parser;
  parser.add_flag("--name", "a string");
  parser.add_flag("--count", "a number");
  parser.add_flag("--verbose", "a switch", false);
  return parser;
}

TEST(Args, ParsesSpaceSeparatedValues) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "run", "--name", "alpha", "--count", "3"};
  ASSERT_TRUE(parser.parse(6, argv));
  EXPECT_EQ(parser.get_or("--name", ""), "alpha");
  EXPECT_EQ(parser.get_int_or("--count", 0), 3);
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "run");
}

TEST(Args, ParsesEqualsSyntax) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--name=beta", "--count=2.5"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_or("--name", ""), "beta");
  EXPECT_DOUBLE_EQ(parser.get_double_or("--count", 0.0), 2.5);
}

TEST(Args, BooleanSwitches) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_TRUE(parser.has("--verbose"));
  EXPECT_FALSE(parser.has("--name"));
}

TEST(Args, RejectsUnknownFlags) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
  EXPECT_NE(parser.error().find("--bogus"), std::string::npos);
}

TEST(Args, RejectsMissingValue) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--name"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_NE(parser.error().find("expects a value"), std::string::npos);
}

TEST(Args, RejectsValueOnSwitch) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--verbose=yes"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(Args, DefaultsApplyWhenAbsent) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get_or("--name", "fallback"), "fallback");
  EXPECT_EQ(parser.get_int_or("--count", 7), 7);
  EXPECT_FALSE(parser.get("--name").has_value());
}

TEST(Args, RangedIntegerAcceptsItsBounds) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count", "65535", "--name=0"};
  ASSERT_TRUE(parser.parse(4, argv));
  EXPECT_EQ(parser.get_int_in("--count", 7, 0, 65535), 65535);
  EXPECT_EQ(parser.get_int_in("--name", 7, 0, 65535), 0);
  // An absent flag yields its fallback unchecked.
  EXPECT_EQ(parser.get_int_in("--verbose", 7, 0, 1), 7);
}

/// The FlagError message get_int_in throws for `value` ("" if none).
std::string ranged_error(const char* value, std::int64_t lo,
                         std::int64_t hi) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count", value};
  EXPECT_TRUE(parser.parse(3, argv));
  try {
    parser.get_int_in("--count", 1, lo, hi);
  } catch (const FlagError& error) {
    return error.what();
  }
  return "";
}

TEST(Args, RangedIntegerRejectsValuesOutsideTheRange) {
  // A narrowing cast would turn these into other values (70000 -> 4464
  // as a port, -1 -> SIZE_MAX as a count); one line names the flag, the
  // range and the value instead.
  EXPECT_EQ(ranged_error("70000", 0, 65535),
            "--count: expected an integer in [0, 65535], got '70000'");
  EXPECT_EQ(ranged_error("-1", 0, 65535),
            "--count: expected an integer in [0, 65535], got '-1'");
  EXPECT_EQ(ranged_error("0", 1, 1024),
            "--count: expected an integer in [1, 1024], got '0'");
  EXPECT_EQ(ranged_error("1025", 1, 1024),
            "--count: expected an integer in [1, 1024], got '1025'");
}

TEST(Args, MalformedNumbersThrowFlagError) {
  EXPECT_EQ(ranged_error("12x", 0, 65535),
            "--count: expected an integer in [0, 65535], got '12x'");
  EXPECT_EQ(ranged_error("99999999999999999999", 0, 65535),
            "--count: expected an integer in [0, 65535], got "
            "'99999999999999999999'");
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count", "2.5", "--name", ""};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_THROW(parser.get_int_or("--count", 0), FlagError);
  EXPECT_THROW(parser.get_double_or("--name", 0.0), FlagError);
}

TEST(Args, FlagsMustStartWithDashes) {
  ArgParser parser;
  EXPECT_THROW(parser.add_flag("name", "bad"), std::invalid_argument);
}

TEST(Args, HelpListsFlags) {
  const ArgParser parser = make_parser();
  const std::string help = parser.help("summary line");
  EXPECT_NE(help.find("summary line"), std::string::npos);
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
}

}  // namespace
}  // namespace itree
