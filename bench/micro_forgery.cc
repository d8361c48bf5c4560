// Micro-benchmarks: forgery-query latency as a function of ensemble size and
// distortion budget (the quantity behind Figure 4's feasibility results),
// plus the multi-anchor solve engine: the scalar per-anchor loop (which
// recompiles the requirement arena for every anchor) against one SolveBatch
// call (arena compiled once, watched-option search, pool fan-out), and the
// compiled-vs-rebuilt arena split. Reference numbers are committed as
// bench/BENCH_forgery.json (see bench/README.md).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/signature.h"
#include "smt/cnf_encoder.h"
#include "smt/compiled_requirements.h"
#include "smt/forgery_solver.h"

namespace {

using namespace treewm;

// The shared breast-cancer-like model fixture (seeds match the pre-dedup
// private cache so the BM_ForgeryBoxSolver trajectory stays comparable).
const bench::ForestFixture& CachedModel(size_t num_trees) {
  return bench::CachedNamedForestFixture("breast-cancer", /*data_seed=*/19,
                                         /*rows=*/0, num_trees,
                                         /*forest_seed=*/23);
}

smt::ForgeryQuery MakeQuery(const bench::ForestFixture& fx, size_t num_trees,
                            double epsilon, uint64_t seed) {
  Rng rng(seed);
  auto fake = core::Signature::Random(num_trees, 0.5, &rng);
  smt::ForgeryQuery query;
  query.signature_bits = fake.bits();
  query.target_label = +1;
  const size_t row = rng.UniformInt(fx.data.num_rows());
  query.anchor.assign(fx.data.Row(row).begin(), fx.data.Row(row).end());
  query.epsilon = epsilon;
  query.max_nodes = 500000;
  return query;
}

void BM_ForgeryBoxSolver(benchmark::State& state) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const double epsilon = static_cast<double>(state.range(1)) / 100.0;
  const bench::ForestFixture& fx = CachedModel(num_trees);
  uint64_t seed = 1;
  for (auto _ : state) {
    auto query = MakeQuery(fx, num_trees, epsilon, seed++);
    auto outcome = smt::ForgerySolver::Solve(fx.forest, query);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ForgeryBoxSolver)
    ->Args({8, 30})
    ->Args({32, 30})
    ->Args({64, 30})
    ->Args({32, 10})
    ->Args({32, 70})
    ->Unit(benchmark::kMicrosecond);

void BM_ForgeryCnfBackend(benchmark::State& state) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const bench::ForestFixture& fx = CachedModel(num_trees);
  uint64_t seed = 1;
  sat::SolveBudget budget;
  budget.max_conflicts = 100000;
  for (auto _ : state) {
    auto query = MakeQuery(fx, num_trees, 0.3, seed++);
    auto outcome = smt::CnfForgeryBackend::Solve(fx.forest, query, budget);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ForgeryCnfBackend)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_LeafExtraction(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedModel(32);
  for (auto _ : state) {
    for (const auto& tree : fx.forest.trees()) {
      auto leaves = tree.ExtractLeaves();
      benchmark::DoNotOptimize(leaves);
    }
  }
}
BENCHMARK(BM_LeafExtraction)->Unit(benchmark::kMicrosecond);

// --- the multi-anchor solve engine -----------------------------------------
//
// The forgery attack solves one query per test anchor against the same
// (forest, σ'). The scalar loop below is what RunForgeryAttack used to do:
// per anchor, rebuild the requirement structure and search. The batched pair
// solves the same anchor block through ForgerySolver::SolveBatch — one
// CompiledRequirements arena per label for the whole block, watched-option
// search, batched end validation. Same verdicts (property-tested in
// tests/test_forgery_batch.cc); the delta is pure engine.

constexpr size_t kAnchorCount = 48;
constexpr double kAnchorEpsilon = 0.3;
constexpr uint64_t kAnchorBudget = 500000;

const std::vector<uint8_t>& FixedFakeBits(size_t num_trees) {
  static auto* cache = new std::map<size_t, std::vector<uint8_t>>();
  auto it = cache->find(num_trees);
  if (it == cache->end()) {
    Rng rng(77);
    it = cache->emplace(num_trees, core::Signature::Random(num_trees, 0.5, &rng).bits())
             .first;
  }
  return it->second;
}

data::Dataset AnchorBlock(const bench::ForestFixture& fx, size_t count) {
  std::vector<size_t> indices(count);
  for (size_t i = 0; i < count; ++i) indices[i] = i % fx.data.num_rows();
  return fx.data.Subset(indices);
}

void BM_ForgeryAnchorsScalarLoop(benchmark::State& state) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const bench::ForestFixture& fx = CachedModel(num_trees);
  const data::Dataset anchors = AnchorBlock(fx, kAnchorCount);
  const std::vector<uint8_t>& bits = FixedFakeBits(num_trees);
  for (auto _ : state) {
    size_t sat = 0;
    for (size_t i = 0; i < anchors.num_rows(); ++i) {
      smt::ForgeryQuery query;
      query.signature_bits = bits;
      query.target_label = anchors.Label(i);
      query.anchor.assign(anchors.Row(i).begin(), anchors.Row(i).end());
      query.epsilon = kAnchorEpsilon;
      query.max_nodes = kAnchorBudget;
      auto outcome = smt::ForgerySolver::Solve(fx.forest, query).MoveValue();
      if (outcome.result == sat::SatResult::kSat) ++sat;
    }
    benchmark::DoNotOptimize(sat);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kAnchorCount));
}
BENCHMARK(BM_ForgeryAnchorsScalarLoop)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_ForgeryAnchorsSolveBatch(benchmark::State& state) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const bench::ForestFixture& fx = CachedModel(num_trees);
  const data::Dataset anchors = AnchorBlock(fx, kAnchorCount);
  smt::ForgeryBatchQuery shared;
  shared.signature_bits = FixedFakeBits(num_trees);
  shared.epsilon = kAnchorEpsilon;
  shared.max_nodes_per_anchor = kAnchorBudget;
  for (auto _ : state) {
    auto outcomes =
        smt::ForgerySolver::SolveBatch(fx.forest, shared, anchors).MoveValue();
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kAnchorCount));
}
// SolveBatch fans anchors out on the pool: report real time, not the main
// thread's CPU time.
BENCHMARK(BM_ForgeryAnchorsSolveBatch)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- compiled vs rebuilt requirement arena ---------------------------------

void BM_CompiledRequirementsBuild(benchmark::State& state) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const bench::ForestFixture& fx = CachedModel(num_trees);
  const std::vector<uint8_t>& bits = FixedFakeBits(num_trees);
  for (auto _ : state) {
    auto arena = smt::CompiledRequirements::Compile(fx.forest, bits, +1);
    benchmark::DoNotOptimize(arena);
  }
}
BENCHMARK(BM_CompiledRequirementsBuild)->Arg(8)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_ForgerySolveRebuilt(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedModel(32);
  uint64_t seed = 1;
  for (auto _ : state) {
    auto query = MakeQuery(fx, 32, kAnchorEpsilon, seed++);
    auto outcome = smt::ForgerySolver::Solve(fx.forest, query);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ForgerySolveRebuilt)->Unit(benchmark::kMicrosecond);

void BM_ForgerySolvePrecompiled(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedModel(32);
  // MakeQuery draws a fresh signature per seed; pre-compile the arenas the
  // queries will use so only the search is measured.
  uint64_t seed = 1;
  std::map<uint64_t, std::shared_ptr<const smt::CompiledRequirements>> arenas;
  for (uint64_t s = 1; s <= 64; ++s) {
    auto query = MakeQuery(fx, 32, kAnchorEpsilon, s);
    arenas[s] = smt::CompiledRequirements::Compile(fx.forest, query.signature_bits,
                                                   query.target_label)
                    .MoveValue();
  }
  for (auto _ : state) {
    auto query = MakeQuery(fx, 32, kAnchorEpsilon, seed);
    auto outcome =
        smt::ForgerySolver::Solve(fx.forest, *arenas[seed], query);
    benchmark::DoNotOptimize(outcome);
    seed = seed % 64 + 1;
  }
}
BENCHMARK(BM_ForgerySolvePrecompiled)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
