#include <gtest/gtest.h>

#include <vector>

#include "green/box.hpp"

namespace ppg {
namespace {

TEST(BoxTest, ImpactIsHeightTimesDuration) {
  const Box b{4, 10};
  EXPECT_EQ(b.impact(), 40u);
}

TEST(BoxTest, CanonicalBoxDuration) {
  const Box b = canonical_box(8, 5);
  EXPECT_EQ(b.height, 8u);
  EXPECT_EQ(b.duration, 40u);
  EXPECT_EQ(b.impact(), 320u);
}

TEST(HeightLadderTest, NumHeights) {
  const HeightLadder ladder{4, 64};
  EXPECT_TRUE(ladder.valid());
  EXPECT_EQ(ladder.num_heights(), 5u);  // 4 8 16 32 64
  EXPECT_EQ(ladder.height(0), 4u);
  EXPECT_EQ(ladder.height(4), 64u);
}

TEST(HeightLadderTest, SingleRung) {
  const HeightLadder ladder{8, 8};
  EXPECT_TRUE(ladder.valid());
  EXPECT_EQ(ladder.num_heights(), 1u);
}

TEST(HeightLadderTest, InvalidWhenNotPow2Ratio) {
  const HeightLadder ladder{3, 12};  // ratio 4 but h_min=3 is fine; ratio
  EXPECT_TRUE(ladder.valid());       // must be a power of two: 12/3 = 4. OK.
  const HeightLadder bad{4, 12};     // 12/4 = 3: invalid
  EXPECT_FALSE(bad.valid());
}

TEST(HeightLadderTest, RungForClampsAndRounds) {
  const HeightLadder ladder{4, 64};
  EXPECT_EQ(ladder.rung_for(1), 0u);
  EXPECT_EQ(ladder.rung_for(4), 0u);
  EXPECT_EQ(ladder.rung_for(5), 1u);   // rounds up to 8
  EXPECT_EQ(ladder.rung_for(8), 1u);
  EXPECT_EQ(ladder.rung_for(33), 4u);  // rounds up to 64
  EXPECT_EQ(ladder.rung_for(1000), 4u);  // clamps to top
}

TEST(HeightLadderTest, Contains) {
  const HeightLadder ladder{4, 64};
  EXPECT_TRUE(ladder.contains(4));
  EXPECT_TRUE(ladder.contains(32));
  EXPECT_FALSE(ladder.contains(2));
  EXPECT_FALSE(ladder.contains(12));
  EXPECT_FALSE(ladder.contains(128));
}

TEST(HeightLadderTest, ForCacheGeometry) {
  const HeightLadder ladder = HeightLadder::for_cache(64, 8);
  EXPECT_EQ(ladder.h_min, 8u);
  EXPECT_EQ(ladder.h_max, 64u);
  EXPECT_EQ(ladder.num_heights(), 4u);
}

TEST(BoxProfileTest, Totals) {
  BoxProfile profile({Box{2, 10}, Box{4, 20}});
  EXPECT_EQ(profile.total_impact(), 2u * 10 + 4u * 20);
  EXPECT_EQ(profile.total_duration(), 30u);
  EXPECT_EQ(profile.size(), 2u);
}

TEST(BoxProfileTest, Conformance) {
  const HeightLadder ladder{2, 8};
  BoxProfile good({Box{2, 4}, Box{8, 16}});
  EXPECT_TRUE(good.conforms_to(ladder));
  BoxProfile bad({Box{3, 4}});
  EXPECT_FALSE(bad.conforms_to(ladder));
}

TEST(EpochSchedule, LookupByPosition) {
  const EpochSchedule schedule({{0, HeightLadder{2, 16}},
                                {100, HeightLadder{4, 16}},
                                {250, HeightLadder{8, 16}}});
  EXPECT_EQ(schedule.num_epochs(), 3u);
  EXPECT_EQ(schedule.ladder_at(0).h_min, 2u);
  EXPECT_EQ(schedule.ladder_at(99).h_min, 2u);
  EXPECT_EQ(schedule.ladder_at(100).h_min, 4u);
  EXPECT_EQ(schedule.ladder_at(249).h_min, 4u);
  EXPECT_EQ(schedule.ladder_at(1000000).h_min, 8u);
}

TEST(EpochSchedule, LadderIsASingleEpoch) {
  const EpochSchedule schedule = HeightLadder{4, 32};
  EXPECT_EQ(schedule.num_epochs(), 1u);
  EXPECT_EQ(schedule.epoch(0).start_position, 0u);
  EXPECT_EQ(schedule.ladder_at(123456).h_min, 4u);
  EXPECT_EQ(schedule.ladder_at(123456).h_max, 32u);
}

TEST(EpochSchedule, DoublingMinBuilder) {
  const EpochSchedule schedule =
      EpochSchedule::doubling_min(2, 32, {100, 200, 300, 400});
  EXPECT_EQ(schedule.num_epochs(), 5u);
  EXPECT_EQ(schedule.ladder_at(0).h_min, 2u);
  EXPECT_EQ(schedule.ladder_at(150).h_min, 4u);
  EXPECT_EQ(schedule.ladder_at(450).h_min, 32u);  // clamped at h_max
  EXPECT_EQ(schedule.ladder_at(450).h_max, 32u);
}

TEST(EpochSchedule, RejectsBadSchedules) {
  EXPECT_DEATH(EpochSchedule(std::vector<EpochSchedule::Epoch>{}),
               "at least one epoch");
  EXPECT_DEATH(EpochSchedule({{5, HeightLadder{2, 8}}}), "position 0");
  EXPECT_DEATH(EpochSchedule({{0, HeightLadder{2, 8}},
                              {10, HeightLadder{2, 8}},
                              {10, HeightLadder{4, 8}}}),
               "strictly increasing");
}

}  // namespace
}  // namespace ppg
