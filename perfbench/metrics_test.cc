// Pins the benchmark's own arithmetic: the fastest repetition, the tail
// rule, span self time, recall@k, the top-k answer check and failure
// counting.

#include "metrics.h"

#include <gtest/gtest.h>

#include <vector>

#include "benchlib/reporting.h"

namespace perfbench {
namespace {

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(FastestTest, MinOrZero) {
  EXPECT_EQ(Fastest({3, 1, 2}), 1);
  EXPECT_EQ(Fastest({}), 0);
}

TEST(FastestTest, PerPieceAcrossRounds) {
  std::vector<double> best = FastestPerPiece({{3, 5, 9}, {4, 2, 8}, {6, 7}});
  ASSERT_EQ(best.size(), 2u);  // The shortest round has two pieces.
  EXPECT_EQ(best[0], 3);
  EXPECT_EQ(best[1], 2);
  EXPECT_TRUE(FastestPerPiece({}).empty());
}

TEST(TailTest, LeavesExactlyTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Tail t = TailOf(v);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 90);  // 91..100 are the ten beyond it.
}

TEST(TailTest, GrowsWithTheSampleCount) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // Unsorted input.
  Tail t = TailOf(v);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990);
}

TEST(TailTest, NoTailWithTenOrFewerSamples) {
  std::vector<double> v(10, 5.0);
  Tail t = TailOf(v);
  EXPECT_EQ(t.samples, 10u);
  EXPECT_EQ(t.percentile, 0);
  EXPECT_EQ(t.value, 0);
  v.push_back(7.0);  // Eleven: the minimum has ten beyond it.
  t = TailOf(v);
  EXPECT_EQ(t.value, 5.0);
  EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
}

TEST(SelfTimeTest, SubtractsChildrenOnce) {
  std::vector<Span> spans = {
      {"call", 0.0, 10.0, -1, 1},
      {"setup", 0.0, 1.0, 0, 1},
      {"exact", 2.0, 5.0, 0, 1},
      {"exact", 4.0, 6.0, 0, 1},   // Overlaps the previous child.
      {"inner", 2.5, 3.0, 2, 1},   // Grandchild: not subtracted from "call".
  };
  std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 1.0 - 4.0);
  EXPECT_DOUBLE_EQ(self[1], 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[3], 2.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
}

TEST(SelfTimeTest, ClipsChildrenToTheParent) {
  std::vector<Span> spans = {
      {"request", 1.0, 3.0, -1, 7},
      {"engine", 0.0, 2.0, 0, 7},  // Starts before the parent.
  };
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 1.0);
}

TEST(TopShareTest, ShareOfTheLargestParts) {
  EXPECT_DOUBLE_EQ(TopShare({1, 1, 1, 7}, 1), 0.7);
  EXPECT_DOUBLE_EQ(TopShare({1, 1}, 10), 1.0);
  EXPECT_EQ(TopShare({}, 10), 0);
}

TEST(RecallTest, CountsTheOverlapWithTheExactAnswer) {
  EXPECT_DOUBLE_EQ(egobw::RecallAtK({1, 2, 3, 4}, {4, 3, 9, 8}), 0.5);
  EXPECT_DOUBLE_EQ(egobw::RecallAtK({1, 2}, {2, 2, 1}), 1.0);
  EXPECT_DOUBLE_EQ(egobw::RecallAtK({1, 2}, {}), 0.0);
}

TEST(MatchesTopKTest, AcceptsTiesAndRejectsWrongAnswers) {
  const std::vector<double> cb = {5, 9, 9, 1, 7};
  EXPECT_TRUE(MatchesTopK({{1, 9}, {2, 9}, {4, 7}}, cb, {}, 3, 1e-6));
  EXPECT_TRUE(MatchesTopK({{2, 9}, {1, 9}}, cb, {}, 2, 1e-6));  // Tie order.
  EXPECT_FALSE(MatchesTopK({{1, 9}, {4, 7}}, cb, {}, 2, 1e-6));  // Missed 2.
  EXPECT_FALSE(MatchesTopK({{1, 9}, {2, 8}}, cb, {}, 2, 1e-6));  // Value.
  EXPECT_FALSE(MatchesTopK({{1, 9}, {1, 9}}, cb, {}, 2, 1e-6));  // Repeat.
  EXPECT_FALSE(MatchesTopK({{1, 9}}, cb, {}, 2, 1e-6));          // Short.
  // Restricted to a subset, with k above its size.
  EXPECT_TRUE(MatchesTopK({{0, 5}, {3, 1}}, cb, {3, 0}, 10, 1e-6));
  EXPECT_FALSE(MatchesTopK({{1, 9}, {0, 5}}, cb, {3, 0}, 10, 1e-6));
}

TEST(TallyTest, CountsFailuresAgainstAttempts) {
  Tally t;
  t.Record(Reply{});                                  // Certified, matches.
  t.Record(Reply{true, true, false, false});          // Uncertified: fine.
  t.Record(Reply{false, true, true, true});           // Transport error.
  t.Record(Reply{true, false, true, true});           // Shed / deadline.
  t.Record(Reply{true, true, true, false});           // Wrong answer.
  t.Record(true);
  t.Record(false);
  EXPECT_EQ(t.attempted, 7u);
  EXPECT_EQ(t.failed, 4u);
  Tally u;
  u.Record(false);
  t.Merge(u);
  EXPECT_EQ(t.attempted, 8u);
  EXPECT_EQ(t.failed, 5u);
}

}  // namespace
}  // namespace perfbench
