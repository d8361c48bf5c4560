// Unit tests for CSV import/export.

#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

namespace treewm::data {
namespace {

TEST(CsvParseTest, BasicLastColumnLabel) {
  auto result = ParseCsv("0.1,0.2,1\n0.3,0.4,-1\n");
  ASSERT_TRUE(result.ok());
  const Dataset& d = result.value();
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.Label(0), kPositive);
  EXPECT_EQ(d.Label(1), kNegative);
  EXPECT_FLOAT_EQ(d.At(1, 1), 0.4f);
}

TEST(CsvParseTest, ZeroOneLabelsMapToMinusPlus) {
  auto result = ParseCsv("1.0,0\n2.0,1\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().Label(0), kNegative);
  EXPECT_EQ(result.value().Label(1), kPositive);
}

TEST(CsvParseTest, HeaderSkipped) {
  CsvOptions options;
  options.has_header = true;
  auto result = ParseCsv("f1,f2,label\n0.5,0.6,1\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 1u);
}

TEST(CsvParseTest, CustomLabelColumn) {
  CsvOptions options;
  options.label_column = 0;
  auto result = ParseCsv("1,0.7,0.8\n-1,0.9,1.0\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_features(), 2u);
  EXPECT_EQ(result.value().Label(0), kPositive);
  EXPECT_FLOAT_EQ(result.value().At(0, 0), 0.7f);
}

TEST(CsvParseTest, SkipsBlankLines) {
  auto result = ParseCsv("\n0.1,1\n\n0.2,-1\n\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 2u);
}

TEST(CsvParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("justonefield\n").ok());
  EXPECT_FALSE(ParseCsv("0.1,abc\n").ok());
  EXPECT_FALSE(ParseCsv("0.1,7\n").ok());  // label 7 invalid
  CsvOptions options;
  options.label_column = 9;
  EXPECT_FALSE(ParseCsv("0.1,1\n", options).ok());
}

TEST(CsvParseTest, InexactLabelsAndOutOfRangeCellsFailClosed) {
  // A fractional or huge label is not rounded into a class, and a finite
  // cell past float range is not narrowed to ±inf: both name their line.
  auto ExpectParseErrorAtLine = [](const std::string& text, const std::string& line) {
    auto result = ParseCsv(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << text;
    EXPECT_NE(result.status().message().find(line), std::string::npos)
        << result.status().ToString();
  };
  ExpectParseErrorAtLine("0.5,1e300,0.6\n0.25,2,-0.4\n", "line 1");
  ExpectParseErrorAtLine("0.5,1e300,1\n", "line 1");
  ExpectParseErrorAtLine("0.5,-1e39,1\n", "line 1");
  ExpectParseErrorAtLine("0.5,2,0.6\n", "line 1");
  ExpectParseErrorAtLine("0.5,2,1\n0.25,2,-0.4\n", "line 2");
  ExpectParseErrorAtLine("0.5,2,1e300\n", "line 1");
  ExpectParseErrorAtLine("0.5,2,nan\n", "line 1");

  // In range: float-max cells, literal ±inf cells and exact labels load.
  auto control = ParseCsv("0.5,3.4e38,1.0\n-inf,inf,-1\n0.25,-3.4e38,0\n");
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  const Dataset& d = control.value();
  EXPECT_EQ(d.At(0, 1), 3.4e38f);
  EXPECT_EQ(d.At(1, 0), -std::numeric_limits<float>::infinity());
  EXPECT_EQ(d.At(1, 1), std::numeric_limits<float>::infinity());
  EXPECT_EQ(d.At(2, 1), -3.4e38f);
  EXPECT_EQ(d.Label(0), kPositive);
  EXPECT_EQ(d.Label(1), kNegative);
  EXPECT_EQ(d.Label(2), kNegative);
}

TEST(CsvRoundTripTest, SaveThenLoadPreservesData) {
  Dataset d(3);
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.125f, 0.25f, 0.5f}, kPositive).ok());
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.75f, 0.0f, 1.0f}, kNegative).ok());
  const std::string path = ::testing::TempDir() + "/treewm_csv_test.csv";
  ASSERT_TRUE(SaveCsv(d, path).ok());
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().num_rows(), d.num_rows());
  ASSERT_EQ(loaded.value().num_features(), d.num_features());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_EQ(loaded.value().Label(i), d.Label(i));
    for (size_t j = 0; j < d.num_features(); ++j) {
      EXPECT_FLOAT_EQ(loaded.value().At(i, j), d.At(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST(CsvLoadTest, MissingFileFails) {
  EXPECT_FALSE(LoadCsv("/no/such/file.csv").ok());
}

}  // namespace
}  // namespace treewm::data
