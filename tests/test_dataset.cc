// Unit tests for the Dataset container.

#include "data/dataset.h"

#include <gtest/gtest.h>

namespace treewm::data {
namespace {

Dataset MakeToy() {
  Dataset d(2);
  EXPECT_TRUE(d.AddRow(std::vector<float>{0.1f, 0.2f}, kPositive).ok());
  EXPECT_TRUE(d.AddRow(std::vector<float>{0.3f, 0.4f}, kNegative).ok());
  EXPECT_TRUE(d.AddRow(std::vector<float>{0.5f, 0.6f}, kPositive).ok());
  return d;
}

TEST(DatasetTest, AddRowAndAccessors) {
  Dataset d = MakeToy();
  EXPECT_EQ(d.num_rows(), 3u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_FLOAT_EQ(d.At(1, 0), 0.3f);
  EXPECT_FLOAT_EQ(d.At(2, 1), 0.6f);
  EXPECT_EQ(d.Label(0), kPositive);
  EXPECT_EQ(d.Label(1), kNegative);
  auto row = d.Row(1);
  EXPECT_EQ(row.size(), 2u);
  EXPECT_FLOAT_EQ(row[1], 0.4f);
}

TEST(DatasetTest, AddRowRejectsBadShapes) {
  Dataset d(3);
  EXPECT_FALSE(d.AddRow(std::vector<float>{1.0f}, kPositive).ok());
  EXPECT_FALSE(d.AddRow(std::vector<float>{1, 2, 3, 4}, kPositive).ok());
}

TEST(DatasetTest, AddRowRejectsBadLabels) {
  Dataset d(1);
  EXPECT_FALSE(d.AddRow(std::vector<float>{1.0f}, 0).ok());
  EXPECT_FALSE(d.AddRow(std::vector<float>{1.0f}, 2).ok());
  EXPECT_TRUE(d.AddRow(std::vector<float>{1.0f}, -1).ok());
}

TEST(DatasetTest, ClassCounts) {
  Dataset d = MakeToy();
  EXPECT_EQ(d.NumPositive(), 2u);
  EXPECT_NEAR(d.PositiveFraction(), 2.0 / 3.0, 1e-12);
  Dataset empty(2);
  EXPECT_DOUBLE_EQ(empty.PositiveFraction(), 0.0);
}

TEST(DatasetTest, SetLabelOverwrites) {
  Dataset d = MakeToy();
  d.SetLabel(0, kNegative);
  EXPECT_EQ(d.Label(0), kNegative);
  EXPECT_EQ(d.NumPositive(), 1u);
}

TEST(DatasetTest, SubsetSelectsRowsInOrder) {
  Dataset d = MakeToy();
  Dataset sub = d.Subset({2, 0});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_FLOAT_EQ(sub.At(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(sub.At(1, 0), 0.1f);
  EXPECT_EQ(sub.Label(0), kPositive);
}

TEST(DatasetTest, SubsetAllowsRepeats) {
  Dataset d = MakeToy();
  Dataset sub = d.Subset({1, 1, 1});
  EXPECT_EQ(sub.num_rows(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(sub.At(i, 1), 0.4f);
}

TEST(DatasetTest, ConcatAppendsRows) {
  Dataset a = MakeToy();
  Dataset b = MakeToy();
  ASSERT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.num_rows(), 6u);
  EXPECT_FLOAT_EQ(a.At(3, 0), 0.1f);
}

TEST(DatasetTest, ConcatRejectsShapeMismatch) {
  Dataset a(2);
  Dataset b(3);
  EXPECT_FALSE(a.Concat(b).ok());
}

TEST(DatasetTest, WithFlippedLabelsNegatesEverything) {
  Dataset d = MakeToy();
  Dataset flipped = d.WithFlippedLabels();
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_EQ(flipped.Label(i), -d.Label(i));
    EXPECT_FLOAT_EQ(flipped.At(i, 0), d.At(i, 0));  // features untouched
  }
}

TEST(DatasetTest, FeatureMinMax) {
  Dataset d = MakeToy();
  EXPECT_FLOAT_EQ(d.FeatureMin(0), 0.1f);
  EXPECT_FLOAT_EQ(d.FeatureMax(0), 0.5f);
  EXPECT_FLOAT_EQ(d.FeatureMin(1), 0.2f);
  EXPECT_FLOAT_EQ(d.FeatureMax(1), 0.6f);
}

TEST(DatasetTest, AllValuesWithin) {
  Dataset d = MakeToy();
  EXPECT_TRUE(d.AllValuesWithin(0.0f, 1.0f));
  EXPECT_FALSE(d.AllValuesWithin(0.0f, 0.5f));
  EXPECT_FALSE(d.AllValuesWithin(0.2f, 1.0f));
}

TEST(DatasetTest, NamePropagatesThroughSubset) {
  Dataset d = MakeToy();
  d.set_name("toy");
  EXPECT_EQ(d.Subset({0}).name(), "toy");
}

}  // namespace
}  // namespace treewm::data
