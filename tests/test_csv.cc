// Unit tests for CSV import/export.

#include "data/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tree/decision_tree.h"

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

// Seeded byte-level fuzz of the CSV boundary: 1-6 replace/insert/delete
// edits of a valid text (odd seeds start from one holding a NaN cell, which
// byte edits rarely spell), drawing bytes from number syntax, separators,
// whitespace and arbitrary values. Parsing must fail with a ParseError or
// yield a dataset; a dataset must either fail training with
// InvalidArgument (it holds a NaN) or train identically on the engine and
// the reference, and predict identically through the flat and scalar paths.
TEST(CsvFuzzTest, EditedTextsParseOrFailClosedAndTrainConsistently) {
  const std::string rows =
      "0.25,1.5,-3,1\n0.5,2.5e-1,4,-1\n-0.75,3,0.125,0\n1e-3,-inf,7,1\n"
      "0.5,0.5,inf,-1\n2,1.5,-3,1\n-0.0,8.5,2,0\n0.5,0.25,1,1\n";
  const std::string valid[] = {rows, rows + "0.5,nan,2,-1\n"};
  const std::string alphabet = "0123456789.,-+eEinfaINF \t\r\n";
  size_t rejected = 0;
  size_t trained = 0;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed);
    std::string text = valid[seed % 2];
    const uint64_t edits = 1 + rng.UniformInt(6);
    for (uint64_t e = 0; e < edits; ++e) {
      const char byte =
          rng.Bernoulli(0.2)
              ? static_cast<char>(rng.UniformInt(256))
              : alphabet[static_cast<size_t>(rng.UniformInt(alphabet.size()))];
      const uint64_t op = text.empty() ? 1 : rng.UniformInt(3);
      if (op == 1) {  // insert
        text.insert(static_cast<size_t>(rng.UniformInt(text.size() + 1)), 1, byte);
      } else {
        const size_t at = static_cast<size_t>(rng.UniformInt(text.size()));
        if (op == 0) {
          text[at] = byte;
        } else {
          text.erase(at, 1);
        }
      }
    }
    auto result = ParseCsv(text);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError)
          << "seed " << seed << ": " << result.status().ToString();
      continue;
    }
    const Dataset& d = result.value();
    bool has_nan = false;
    for (float v : d.values()) has_nan = has_nan || std::isnan(v);
    auto fast = tree::DecisionTree::Fit(d, {}, tree::TreeConfig{});
    auto reference = tree::DecisionTree::FitReference(d, {}, tree::TreeConfig{});
    if (has_nan) {
      EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument) << "seed " << seed;
      EXPECT_EQ(reference.status().code(), StatusCode::kInvalidArgument)
          << "seed " << seed;
      ++rejected;
      continue;
    }
    ASSERT_TRUE(fast.ok()) << "seed " << seed << ": " << fast.status().ToString();
    ASSERT_TRUE(reference.ok()) << "seed " << seed;
    ++trained;
    EXPECT_TRUE(fast.value().StructurallyEqual(reference.value())) << "seed " << seed;
    std::vector<int> scalar(d.num_rows());
    for (size_t i = 0; i < d.num_rows(); ++i) scalar[i] = fast.value().Predict(d.Row(i));
    EXPECT_EQ(fast.value().PredictBatch(d), scalar) << "seed " << seed;
  }
  // Both outcomes must be reached, or a property above would hold vacuously.
  EXPECT_GT(rejected, 20u);
  EXPECT_GT(trained, 20u);
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
