#include "lossless/lz77.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace deepsz::lossless {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Lz77, FindsExactRepeat) {
  auto data = bytes_of("abcdefgh_abcdefgh");
  Lz77Params p;
  MatchFinder mf(data, p);
  Match m = mf.find(9);
  ASSERT_TRUE(m.found());
  EXPECT_EQ(m.distance, 9u);
  EXPECT_EQ(m.length, 8u);
}

TEST(Lz77, NoMatchInUniqueData) {
  auto data = bytes_of("abcdefghijklmnop");
  Lz77Params p;
  MatchFinder mf(data, p);
  Match m = mf.find(8);
  EXPECT_FALSE(m.found());
}

TEST(Lz77, RespectsMinMatch) {
  auto data = bytes_of("ab__ab");
  Lz77Params p;
  p.min_match = 3;
  MatchFinder mf(data, p);
  Match m = mf.find(4);  // only "ab" (length 2) matches
  EXPECT_FALSE(m.found());
}

TEST(Lz77, OverlappingMatchForRuns) {
  std::vector<std::uint8_t> data(64, 'x');
  Lz77Params p;
  MatchFinder mf(data, p);
  Match m = mf.find(1);
  ASSERT_TRUE(m.found());
  EXPECT_EQ(m.distance, 1u);
  EXPECT_EQ(m.length, 63u);  // overlapping run-length style match
}

TEST(Lz77, MaxMatchCaps) {
  std::vector<std::uint8_t> data(1000, 'y');
  Lz77Params p;
  p.max_match = 100;
  MatchFinder mf(data, p);
  Match m = mf.find(1);
  ASSERT_TRUE(m.found());
  EXPECT_EQ(m.length, 100u);
}

TEST(Lz77, WindowLimitsDistance) {
  // Repeat separated by more than the window: must not be found.
  std::vector<std::uint8_t> data;
  auto pattern = bytes_of("PATTERN!");
  data.insert(data.end(), pattern.begin(), pattern.end());
  data.insert(data.end(), 5000, '.');
  data.insert(data.end(), pattern.begin(), pattern.end());
  Lz77Params p;
  p.window_bits = 12;  // 4096 window < 5008 gap
  MatchFinder mf(data, p);
  Match m = mf.find(data.size() - 8);
  // Either no match or only a nearby short one; the far pattern is excluded.
  if (m.found()) {
    EXPECT_LE(m.distance, 4096u);
  }
}

}  // namespace
}  // namespace deepsz::lossless
