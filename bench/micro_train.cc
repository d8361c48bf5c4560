// Micro-benchmarks: decision tree, random forest and GBDT training
// throughput.
//
// The trainers run on the sort-once column-index engine
// (src/tree/sorted_columns.h + trainer_core.h); every single-tree engine
// benchmark is paired with its retained naive reference (`*Reference`,
// per-node re-sorting) measured in the SAME run — the two produce
// bit-identical trees by the trainer equivalence contract, so the gap is
// pure engine. Benchmarks whose column sort or tree fan-out runs on the
// thread pool report real time (UseRealTime): CPU time would count only the
// main thread.
//
// Reference run committed as bench/BENCH_train.json (see bench/README.md).

#include <benchmark/benchmark.h>

#include <map>
#include <utility>
#include <vector>

#include "boosting/gbdt.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "tree/decision_tree.h"
#include "tree/sorted_columns.h"

namespace {

using namespace treewm;

const data::Dataset& CachedBlobs(size_t rows, size_t features) {
  static auto* cache = new std::map<std::pair<size_t, size_t>, data::Dataset>();
  auto key = std::make_pair(rows, features);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, data::synthetic::MakeBlobs(7, rows, features, 1.2))
             .first;
  }
  return it->second;
}

// ------------------------------------------------------- single trees ----

void BM_TreeFit(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::Fit(data, {}, config);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_TreeFit)
    ->Args({500, 10})
    ->Args({2000, 10})
    ->Args({2000, 50})
    ->Args({8000, 20})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TreeFitReference(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::FitReference(data, {}, config);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_TreeFitReference)
    ->Args({500, 10})
    ->Args({2000, 10})
    ->Args({2000, 50})
    ->Args({8000, 20})
    ->Unit(benchmark::kMillisecond);

// One tree on prebuilt columns: the marginal cost of a tree once the
// dataset-level sort is amortized (the forest / GBDT / TrainWithTrigger
// steady state), vs BM_TreeFit which pays the sort inside the call.
void BM_TreeFitPresortedColumns(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  const auto sorted = tree::SortedColumns::Build(data);
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::Fit(data, {}, config, {}, sorted.get());
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_TreeFitPresortedColumns)
    ->Args({2000, 10})
    ->Args({8000, 20})
    ->Unit(benchmark::kMillisecond);

void BM_SortedColumnsBuild(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto sorted = tree::SortedColumns::Build(data);
    benchmark::DoNotOptimize(sorted);
  }
}
BENCHMARK(BM_SortedColumnsBuild)
    ->Args({2000, 10})
    ->Args({8000, 20})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TreeFitBestFirst(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  tree::TreeConfig config;
  config.max_leaf_nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto tree = tree::DecisionTree::Fit(data, {}, config);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeFitBestFirst)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TreeFitBestFirstReference(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  tree::TreeConfig config;
  config.max_leaf_nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto tree = tree::DecisionTree::FitReference(data, {}, config);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeFitBestFirstReference)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_TreeFitWeighted(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  std::vector<double> weights(data.num_rows(), 1.0);
  for (size_t i = 0; i < weights.size(); i += 50) weights[i] = 20.0;
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::Fit(data, weights, config);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeFitWeighted)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TreeFitWeightedReference(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  std::vector<double> weights(data.num_rows(), 1.0);
  for (size_t i = 0; i < weights.size(); i += 50) weights[i] = 20.0;
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::FitReference(data, weights, config);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeFitWeightedReference)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ forests ----

void BM_ForestFit(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  forest::ForestConfig config;
  config.num_trees = static_cast<size_t>(state.range(0));
  config.seed = 5;
  for (auto _ : state) {
    auto forest = forest::RandomForest::Fit(data, {}, config);
    benchmark::DoNotOptimize(forest);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForestFit)
    ->Arg(8)
    ->Arg(32)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ForestFitSerial(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  forest::ForestConfig config;
  config.num_trees = 32;
  config.seed = 5;
  config.num_threads = 1;
  for (auto _ : state) {
    auto forest = forest::RandomForest::Fit(data, {}, config);
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_ForestFitSerial)->Unit(benchmark::kMillisecond)->UseRealTime();

// --------------------------------------------------------------- GBDT ----

void BM_GbdtFit(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  boosting::GbdtConfig config;
  config.num_trees = static_cast<size_t>(state.range(2));
  for (auto _ : state) {
    auto model = boosting::Gbdt::Fit(data, config);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
}
BENCHMARK(BM_GbdtFit)
    ->Args({2000, 10, 50})
    ->Args({4000, 20, 50})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
