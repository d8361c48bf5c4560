// Property tests for the batched flat-ensemble inference engine: on every
// covered configuration, FlatEnsemble/BatchPredictor output must be
// bit-exact with the scalar reference loops (predict/reference.h), for every
// thread count and tiling shape.

#include "predict/batch_predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "boosting/gbdt.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "predict/flat_ensemble.h"
#include "predict/reference.h"
#include "tree/decision_tree.h"

namespace treewm::predict {
namespace {

/// The float-domain edges blobs never reach: signed zeros, the two smallest
/// denormals, half the smallest normal, the smallest normal, the finite
/// extremes and the infinities, each with both signs.
constexpr float kEdgeValues[] = {
    0.0f,
    -0.0f,
    std::numeric_limits<float>::denorm_min(),
    -std::numeric_limits<float>::denorm_min(),
    2 * std::numeric_limits<float>::denorm_min(),
    -2 * std::numeric_limits<float>::denorm_min(),
    std::numeric_limits<float>::min() / 2,
    -std::numeric_limits<float>::min() / 2,
    std::numeric_limits<float>::min(),
    -std::numeric_limits<float>::min(),
    std::numeric_limits<float>::max(),
    -std::numeric_limits<float>::max(),
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
};

/// Copy of `d` with each cell replaced, with probability `fraction`, by a
/// kEdgeValues entry (or, when `with_nan`, by NaN as one more pool entry).
data::Dataset WithEdgeValues(data::Dataset d, uint64_t seed, double fraction,
                             bool with_nan) {
  Rng rng(seed);
  const size_t pool = std::size(kEdgeValues) + (with_nan ? 1 : 0);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    for (size_t j = 0; j < d.num_features(); ++j) {
      if (!rng.Bernoulli(fraction)) continue;
      const size_t k = rng.UniformInt(pool);
      d.SetAt(i, j, k < std::size(kEdgeValues)
                        ? kEdgeValues[k]
                        : std::numeric_limits<float>::quiet_NaN());
    }
  }
  return d;
}

forest::RandomForest MakeForest(uint64_t seed, size_t num_trees, size_t rows,
                                size_t features, int max_depth = -1,
                                double edge_fraction = 0.0) {
  auto d = data::synthetic::MakeBlobs(seed, rows, features, 1.0);
  if (edge_fraction > 0.0) d = WithEdgeValues(d, seed + 1, edge_fraction, false);
  forest::ForestConfig config;
  config.num_trees = num_trees;
  config.seed = seed;
  config.tree.max_depth = max_depth;
  return forest::RandomForest::Fit(d, {}, config).MoveValue();
}

/// Compares a vote matrix row by row against the nested reference votes
/// (reference::PredictAllBatch), naming the first differing row.
::testing::AssertionResult SameVotes(const VoteMatrix& votes,
                                     const std::vector<std::vector<int>>& expected) {
  if (votes.num_rows() != expected.size()) {
    return ::testing::AssertionFailure()
           << votes.num_rows() << " rows vs " << expected.size() << " expected";
  }
  for (size_t r = 0; r < expected.size(); ++r) {
    const std::span<const int8_t> row = votes.row(r);
    if (!std::equal(row.begin(), row.end(), expected[r].begin(), expected[r].end())) {
      return ::testing::AssertionFailure() << "votes differ on row " << r;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(FloatKeyTest, PreservesFloatOrdering) {
  // FloatKey must be a monotone embedding of the non-NaN floats into uint32,
  // with -0.0 == +0.0 — this is what makes integer-key traversal bit-exact.
  const float values[] = {-std::numeric_limits<float>::infinity(), -3.5e12f,
                          -7.25f, -1.0f, -1e-30f, -0.0f, 0.0f, 1e-30f, 0.125f,
                          0.5f, 0.500001f, 1.0f, 77.0f, 3.5e12f,
                          std::numeric_limits<float>::infinity()};
  for (float a : values) {
    for (float b : values) {
      EXPECT_EQ(a <= b, FloatKey(a) <= FloatKey(b)) << a << " vs " << b;
    }
  }
  EXPECT_EQ(FloatKey(-0.0f), FloatKey(0.0f));
}

TEST(FloatKeyTest, EveryNanNormalizesAboveInfinity) {
  // All NaN payloads — sign bit set or not, quiet or signaling — must map to
  // ONE key above +inf, so the traversal routes NaN features right exactly
  // like the scalar `!(x <= v)` rule (sign-bit NaNs previously mapped low).
  const uint32_t nan_bits[] = {0x7FC00000u, 0x7F800001u, 0x7FFFFFFFu,
                               0xFFC00000u, 0xFF800001u, 0xFFFFFFFFu};
  const uint32_t canonical = FloatKey(std::numeric_limits<float>::quiet_NaN());
  EXPECT_GT(canonical, FloatKey(std::numeric_limits<float>::infinity()));
  for (uint32_t bits : nan_bits) {
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    ASSERT_TRUE(std::isnan(f));
    EXPECT_EQ(FloatKey(f), canonical) << std::hex << bits;
  }
}

TEST(FlatEnsembleTest, PacksForestStructure) {
  auto forest = MakeForest(1, 5, 200, 6);
  auto flat = FlatEnsemble::FromClassificationTrees(forest.trees());
  EXPECT_EQ(flat.num_trees(), 5u);
  EXPECT_EQ(flat.num_features(), 6u);
  EXPECT_FALSE(flat.is_regression());
  size_t nodes = 0, leaves = 0;
  for (const auto& t : forest.trees()) {
    nodes += t.NumNodes();
    leaves += t.NumLeaves();
  }
  EXPECT_EQ(flat.num_leaves(), leaves);
  EXPECT_EQ(flat.num_internal_nodes(), nodes - leaves);
}

// The core property: flat == scalar for randomized forests across shapes.
TEST(FlatEquivalenceTest, ForestBatchesMatchScalarAcrossRandomConfigs) {
  struct Case {
    uint64_t seed;
    size_t trees, rows, features;
    int max_depth;
  };
  const Case cases[] = {
      {11, 1, 50, 3, -1},  {12, 3, 97, 5, 4},    {13, 16, 256, 8, -1},
      {14, 7, 64, 12, 2},  {15, 33, 301, 4, -1}, {16, 2, 1, 6, -1},
      {291, 12, 200, 6, -1},
  };
  // With `edges` > 0, training cells and query cells are also drawn from
  // the float-domain edges, and query cells from NaN too.
  for (double edges : {0.0, 0.2}) {
    for (const Case& c : cases) {
      auto forest =
          MakeForest(c.seed, c.trees, c.rows, c.features, c.max_depth, edges);
      auto probe =
          data::synthetic::MakeBlobs(c.seed + 100, c.rows, c.features, 0.7);
      if (edges > 0.0) probe = WithEdgeValues(probe, c.seed + 200, edges, true);
      EXPECT_EQ(forest.PredictBatch(probe), reference::PredictBatch(forest, probe))
          << "seed " << c.seed << " edges " << edges;
      EXPECT_TRUE(SameVotes(forest.PredictAllVotes(probe),
                            reference::PredictAllBatch(forest, probe)))
          << "seed " << c.seed << " edges " << edges;
      EXPECT_DOUBLE_EQ(forest.Accuracy(probe), reference::Accuracy(forest, probe))
          << "seed " << c.seed << " edges " << edges;
    }
  }
}

TEST(FlatEquivalenceTest, SingleTreeBatchesMatchScalar) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    auto d = data::synthetic::MakeBlobs(seed, 150, 5, 1.0);
    tree::TreeConfig config;
    auto tree = tree::DecisionTree::Fit(d, {}, config).MoveValue();
    auto probe = data::synthetic::MakeBlobs(seed + 50, 77, 5, 0.9);
    EXPECT_EQ(tree.PredictBatch(probe), reference::PredictBatch(tree, probe));
    EXPECT_DOUBLE_EQ(tree.Accuracy(probe), reference::Accuracy(tree, probe));
  }
}

TEST(FlatEquivalenceTest, ThreadCountsAndTilingsNeverChangeResults) {
  auto forest = MakeForest(31, 9, 230, 7);
  auto probe = data::synthetic::MakeBlobs(32, 230, 7, 0.8);
  auto flat = FlatEnsemble::FromClassificationTrees(forest.trees());
  const auto expected_votes = reference::PredictAllBatch(forest, probe);
  const auto expected_labels = reference::PredictBatch(forest, probe);
  const double expected_acc = reference::Accuracy(forest, probe);
  for (size_t threads : {1u, 2u, 5u}) {
    for (size_t row_block : {1u, 3u, 64u, 1000u}) {
      for (size_t tree_block : {1u, 4u, 100u}) {
        BatchOptions options;
        options.num_threads = threads;
        options.row_block = row_block;
        options.tree_block = tree_block;
        BatchPredictor predictor(flat, options);
        EXPECT_TRUE(SameVotes(predictor.PredictAllVotes(probe), expected_votes))
            << threads << "/" << row_block << "/" << tree_block;
        EXPECT_EQ(predictor.PredictLabels(probe), expected_labels);
        EXPECT_DOUBLE_EQ(predictor.LabelAccuracy(probe), expected_acc);
      }
    }
  }
}

// The VoteMatrix must agree entry-for-entry with the scalar reference on
// every thread count and tiling, through both its row spans and vote(r, t).
TEST(VoteMatrixTest, MatrixMatchesReferenceAcrossThreadsAndTilings) {
  auto forest = MakeForest(33, 11, 217, 6);
  auto probe = data::synthetic::MakeBlobs(34, 217, 6, 0.8);
  auto flat = FlatEnsemble::FromClassificationTrees(forest.trees());
  const auto expected = reference::PredictAllBatch(forest, probe);
  VoteMatrix first;
  bool have_first = false;
  for (size_t threads : {1u, 2u, 5u}) {
    for (size_t row_block : {1u, 7u, 64u, 1000u}) {
      for (size_t tree_block : {1u, 3u, 100u}) {
        BatchOptions options;
        options.num_threads = threads;
        options.row_block = row_block;
        options.tree_block = tree_block;
        BatchPredictor predictor(flat, options);
        const VoteMatrix votes = predictor.PredictAllVotes(probe);
        ASSERT_EQ(votes.num_rows(), probe.num_rows());
        ASSERT_EQ(votes.num_trees(), forest.num_trees());
        EXPECT_TRUE(SameVotes(votes, expected))
            << threads << "/" << row_block << "/" << tree_block;
        for (size_t r = 0; r < votes.num_rows(); ++r) {
          for (size_t t = 0; t < votes.num_trees(); ++t) {
            ASSERT_EQ(static_cast<int>(votes.vote(r, t)), expected[r][t])
                << "row " << r << " tree " << t;
          }
        }
        // Schedule independence: every configuration yields the same matrix.
        if (!have_first) {
          first = votes;
          have_first = true;
        } else {
          EXPECT_TRUE(votes == first);
        }
      }
    }
  }
}

TEST(VoteMatrixTest, MajorityLabelMatchesForestTieRule) {
  auto forest = MakeForest(36, 8, 150, 5);  // even tree count: ties possible
  auto probe = data::synthetic::MakeBlobs(37, 90, 5, 0.7);
  const VoteMatrix votes = forest.PredictAllVotes(probe);
  const auto labels = reference::PredictBatch(forest, probe);
  for (size_t r = 0; r < probe.num_rows(); ++r) {
    EXPECT_EQ(votes.MajorityLabel(r), labels[r]) << "row " << r;
  }
}

TEST(VoteMatrixTest, EmptyAndSingleRowShapes) {
  auto forest = MakeForest(38, 4, 80, 3);
  data::Dataset empty(3);
  const VoteMatrix none = forest.PredictAllVotes(empty);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.num_rows(), 0u);
  EXPECT_EQ(none.num_trees(), 4u);

  data::Dataset one(3);
  ASSERT_TRUE(one.AddRow(std::vector<float>{0.1f, 0.9f, 0.4f}, +1).ok());
  const VoteMatrix single = forest.PredictAllVotes(one);
  ASSERT_EQ(single.num_rows(), 1u);
  EXPECT_TRUE(SameVotes(single, reference::PredictAllBatch(forest, one)));
}

TEST(FlatEquivalenceTest, SingleLeafTreesAndMixedDepths) {
  // Forest mixing root-only leaves with a real tree: exercises negative root
  // entries and idle lanes in the 4-way walk.
  auto plus = tree::DecisionTree::FromNodes({tree::TreeNode{-1, 0, -1, -1, +1}}, 4)
                  .MoveValue();
  auto minus = tree::DecisionTree::FromNodes({tree::TreeNode{-1, 0, -1, -1, -1}}, 4)
                   .MoveValue();
  auto d = data::synthetic::MakeBlobs(41, 120, 4, 1.5);
  tree::TreeConfig config;
  auto deep = tree::DecisionTree::Fit(d, {}, config).MoveValue();
  auto forest = forest::RandomForest::FromTrees({plus, minus, deep, plus, minus})
                    .MoveValue();
  EXPECT_EQ(forest.PredictBatch(d), reference::PredictBatch(forest, d));
  EXPECT_TRUE(
      SameVotes(forest.PredictAllVotes(d), reference::PredictAllBatch(forest, d)));
  EXPECT_DOUBLE_EQ(forest.Accuracy(d), reference::Accuracy(forest, d));

  // All-leaf ensemble: empty arena, every entry negative.
  auto leaves_only = forest::RandomForest::FromTrees({plus, minus, plus}).MoveValue();
  EXPECT_EQ(leaves_only.PredictBatch(d), reference::PredictBatch(leaves_only, d));
  EXPECT_DOUBLE_EQ(leaves_only.Accuracy(d), reference::Accuracy(leaves_only, d));
}

TEST(FlatEquivalenceTest, EmptyAndTinyDatasets) {
  auto forest = MakeForest(51, 5, 90, 3);
  data::Dataset empty(3);
  EXPECT_TRUE(forest.PredictBatch(empty).empty());
  EXPECT_TRUE(forest.PredictAllVotes(empty).empty());
  EXPECT_DOUBLE_EQ(forest.Accuracy(empty), 0.0);  // documented convention

  data::Dataset one(3);
  ASSERT_TRUE(one.AddRow(std::vector<float>{0.2f, 0.8f, 0.5f}, -1).ok());
  EXPECT_EQ(forest.PredictBatch(one), reference::PredictBatch(forest, one));
  EXPECT_TRUE(SameVotes(forest.PredictAllVotes(one),
                        reference::PredictAllBatch(forest, one)));
  EXPECT_DOUBLE_EQ(forest.Accuracy(one), reference::Accuracy(forest, one));
}

TEST(FlatEquivalenceTest, CachedFlatImageSurvivesCopiesAndRepeatedCalls) {
  // RandomForest lazily caches its packed image; copies share it and
  // repeated batch calls must keep returning identical results.
  auto forest = MakeForest(55, 6, 120, 5);
  auto probe = data::synthetic::MakeBlobs(56, 80, 5, 1.0);
  const VoteMatrix first = forest.PredictAllVotes(probe);  // builds the cache
  const auto copy = forest;                                // shares the cache
  EXPECT_TRUE(copy.PredictAllVotes(probe) == first);
  EXPECT_TRUE(forest.PredictAllVotes(probe) == first);     // cache hit
  EXPECT_DOUBLE_EQ(forest.Accuracy(probe), reference::Accuracy(forest, probe));
}

TEST(FlatEquivalenceTest, GbdtScoresAreBitExact) {
  for (uint64_t seed : {61u, 62u}) {
    auto d = data::synthetic::MakeBlobs(seed, 220, 6, 0.9);
    boosting::GbdtConfig config;
    config.num_trees = 25;
    auto model = boosting::Gbdt::Fit(d, config).MoveValue();
    auto probe = data::synthetic::MakeBlobs(seed + 9, 143, 6, 0.9);

    // Scores, not just signs, must be bit-identical with the scalar path.
    auto flat = FlatEnsemble::FromRegressionTrees(
        model.trees(), model.initial_score(), model.learning_rate());
    for (size_t threads : {1u, 2u, 4u}) {
      BatchOptions options;
      options.num_threads = threads;
      BatchPredictor predictor(flat, options);
      const auto scores = predictor.Scores(probe);
      ASSERT_EQ(scores.size(), probe.num_rows());
      for (size_t i = 0; i < probe.num_rows(); ++i) {
        EXPECT_EQ(scores[i], model.Score(probe.Row(i))) << "row " << i;
      }
    }

    EXPECT_DOUBLE_EQ(model.Accuracy(probe), reference::Accuracy(model, probe));
    for (size_t k : {0u, 1u, 7u, 25u, 1000u}) {
      EXPECT_DOUBLE_EQ(model.StagedAccuracy(probe, k),
                       reference::StagedAccuracy(model, probe, k))
          << "k=" << k;
    }
  }
}

TEST(FlatEquivalenceTest, StagedAccuracyCurveMatchesPerStageRescans) {
  auto d = data::synthetic::MakeBlobs(71, 180, 5, 1.1);
  boosting::GbdtConfig config;
  config.num_trees = 12;
  auto model = boosting::Gbdt::Fit(d, config).MoveValue();
  auto probe = data::synthetic::MakeBlobs(72, 95, 5, 1.1);
  const auto curve = model.StagedAccuracyCurve(probe);
  ASSERT_EQ(curve.size(), model.num_trees() + 1);
  for (size_t k = 0; k <= model.num_trees(); ++k) {
    EXPECT_DOUBLE_EQ(curve[k], reference::StagedAccuracy(model, probe, k))
        << "k=" << k;
  }
  EXPECT_DOUBLE_EQ(curve.back(), model.Accuracy(probe));

  data::Dataset empty(5);
  const auto empty_curve = model.StagedAccuracyCurve(empty);
  ASSERT_EQ(empty_curve.size(), model.num_trees() + 1);
  for (double v : empty_curve) EXPECT_DOUBLE_EQ(v, 0.0);
}

// Sign-bit and signalling NaN payloads: FloatKey normalizes every NaN to the
// canonical quiet NaN, so a NaN feature routes right (`!(x <= v)`) exactly
// like the scalar paths, on a hand-built tree and on a trained forest.
TEST(FlatEquivalenceTest, NegativeNanPayloadsMatchScalar) {
  float neg_nan, neg_nan_payload;
  {
    const uint32_t bits = 0xFFC00000u;  // sign-bit quiet NaN
    std::memcpy(&neg_nan, &bits, sizeof(neg_nan));
    const uint32_t payload_bits = 0xFF800001u;  // sign-bit signaling payload
    std::memcpy(&neg_nan_payload, &payload_bits, sizeof(neg_nan_payload));
  }
  ASSERT_TRUE(std::isnan(neg_nan));
  ASSERT_TRUE(std::isnan(neg_nan_payload));

  // Deterministic single-split tree: scalar `x <= 0.5` is false for every
  // NaN, so all NaN rows must take the right child (+1).
  auto t = tree::DecisionTree::FromNodes({tree::TreeNode{0, 0.5f, 1, 2, 0},
                                          tree::TreeNode{-1, 0, -1, -1, -1},
                                          tree::TreeNode{-1, 0, -1, -1, +1}},
                                         2)
               .MoveValue();
  auto forest = forest::RandomForest::FromTrees({t}).MoveValue();
  data::Dataset probe(2);
  ASSERT_TRUE(probe.AddRow(std::vector<float>{neg_nan, 0.0f}, +1).ok());
  ASSERT_TRUE(probe.AddRow(std::vector<float>{neg_nan_payload, 1.0f}, +1).ok());
  ASSERT_TRUE(probe.AddRow(std::vector<float>{std::nanf(""), 2.0f}, +1).ok());
  ASSERT_TRUE(probe.AddRow(std::vector<float>{0.25f, 3.0f}, -1).ok());

  const auto expected = reference::PredictBatch(forest, probe);
  EXPECT_EQ(expected, (std::vector<int>{+1, +1, +1, -1}));
  BatchPredictor predictor(FlatEnsemble::FromClassificationTrees(forest.trees()));
  EXPECT_EQ(predictor.PredictLabels(probe), expected);

  // And on a trained forest with NaNs injected into several features.
  auto trained = MakeForest(271, 9, 180, 5);
  auto base = data::synthetic::MakeBlobs(272, 60, 5, 0.8);
  data::Dataset nan_probe(5);
  for (size_t r = 0; r < base.num_rows(); ++r) {
    std::vector<float> row(base.Row(r).begin(), base.Row(r).end());
    row[r % 5] = r % 2 == 0 ? neg_nan : neg_nan_payload;
    ASSERT_TRUE(nan_probe.AddRow(row, base.Label(r)).ok());
  }
  BatchPredictor trained_predictor(
      FlatEnsemble::FromClassificationTrees(trained.trees()));
  EXPECT_TRUE(SameVotes(trained_predictor.PredictAllVotes(nan_probe),
                        reference::PredictAllBatch(trained, nan_probe)));
}

}  // namespace
}  // namespace treewm::predict
