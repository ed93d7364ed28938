#include "util/config.h"

#include <gtest/gtest.h>

namespace cmfl::util {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValuePairs) {
  const Config cfg = parse({"rounds=200", "lr=0.05", "name=cmfl"});
  EXPECT_EQ(cfg.get_int("rounds", 0), 200);
  EXPECT_DOUBLE_EQ(cfg.get_double("lr", 0.0), 0.05);
  EXPECT_EQ(cfg.get_string("name", ""), "cmfl");
}

TEST(Config, FallbacksUsedWhenAbsent) {
  const Config cfg = parse({});
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(cfg.get_bool("missing", true));
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
}

TEST(Config, MalformedEntryRejected) {
  EXPECT_THROW(parse({"noequals"}), std::invalid_argument);
  EXPECT_THROW(parse({"=value"}), std::invalid_argument);
}

TEST(Config, BadTypesRejected) {
  const Config cfg = parse({"n=12x", "f=1.2.3", "b=maybe"});
  EXPECT_THROW(cfg.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("f", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_bool("b", false), std::invalid_argument);
}

TEST(Config, BoolSpellings) {
  const Config cfg = parse({"a=1", "b=true", "c=off", "d=no"});
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_TRUE(cfg.get_bool("b", false));
  EXPECT_FALSE(cfg.get_bool("c", true));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, UnusedKeysReported) {
  const Config cfg = parse({"used=1", "typo=2"});
  EXPECT_EQ(cfg.get_int("used", 0), 1);
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Config, CheckUnusedKeysFailsLoudlyOnATypo) {
  const Config cfg = parse({"iters=3", "itres=4"});
  EXPECT_EQ(cfg.get_int("iters", 0), 3);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(cfg.check_unused_keys());
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("'itres'"),
            std::string::npos);
  EXPECT_EQ(cfg.get_int("itres", 0), 4);  // a read key is no longer unused
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(cfg.check_unused_keys());
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(Config, Int64RoundTrip) {
  const Config cfg = parse({"big=9007199254740993"});
  EXPECT_EQ(cfg.get_int64("big", 0), 9007199254740993LL);
}

}  // namespace
}  // namespace cmfl::util
