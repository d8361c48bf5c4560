// treewm end-to-end benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Runs the rounds of stages described in README.md on one workload through
// the library's public APIs, checks every output, and prints one JSON
// object as the last line of stdout: the end-to-end metrics with --trace 0,
// the per-layer metrics (span self times, work counts, server counters)
// with --trace 1.
// Diagnostics go to stdout as '#' lines before it. Exit code 0 only when
// every check passed.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/forgery_attack.h"
#include "common/logging.h"
#include "core/train_with_trigger.h"
#include "core/verification.h"
#include "core/watermark.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "forest/grid_search.h"
#include "io/ensemble_snapshot.h"
#include "predict/batch_predictor.h"
#include "serve/registry/model_registry.h"
#include "serve/wire/socket_client.h"
#include "serve/wire/socket_server.h"
#include "smt/compiled_requirements.h"
#include "smt/forgery_solver.h"
#include "tree/sorted_columns.h"
#include "closed_loop.h"
#include "open_loop.h"
#include "spec.h"
#include "trace.h"
#include "util.h"
#include "wire_black_box.h"

namespace perfbench {
namespace {

using namespace treewm;
namespace wire = treewm::serve::wire;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

/// Checks and counts shared by every stage.
struct Run {
  Options options;
  const WorkloadSpec* spec = nullptr;
  MetricTable e2e;
  MetricTable layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::printf("# CHECK FAILED: %s\n", what.c_str());
    }
  }
  /// Records one operation; returns `status.ok()`.
  bool Op(const Status& status, const std::string& what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    Check(false, what + ": " + status.ToString());
    return false;
  }
  /// The measured stages run `rounds` times, one after another, each on a
  /// fresh set-up. Each round yields samples of every end-to-end metric
  /// (embed_cpu_s one, forgery_cpu_s one per sweep, the serving CPU costs
  /// one per capacity phase), and the metric reports their median. Wall
  /// times are sampled the same way and printed as diagnostics.
  int rounds = 3;
  struct Samples {
    std::string name;
    std::string unit;
    bool end_to_end;
    std::vector<double> values;
  };
  std::vector<Samples> samples;

  void Sample(const std::string& name, double value, const std::string& unit,
              bool end_to_end = true) {
    for (Samples& s : samples) {
      if (s.name == name) {
        s.values.push_back(value);
        return;
      }
    }
    samples.push_back({name, unit, end_to_end, {value}});
  }
  double SampleMedian(const std::string& name) const {
    for (const Samples& s : samples) {
      if (s.name == name) return Median(s.values);
    }
    return std::numeric_limits<double>::quiet_NaN();
  }
  void ReportMedians() {
    for (const Samples& s : samples) {
      std::string line;
      for (double v : s.values) line += " " + std::to_string(v);
      std::printf("# samples %s (%s, median %.6g):%s\n", s.name.c_str(), s.unit.c_str(),
                  Median(s.values), line.c_str());
      if (s.end_to_end) e2e.Set(s.name, Median(s.values), s.unit);
    }
  }
  /// Seconds of one round's time budget for a stage given its share.
  double Budget(double share) const { return options.seconds * share / rounds; }
};

// ------------------------------------------------------------- set-up ----

/// Everything the stages share: data, the watermarked model, the hot
/// model, and a registry-mode server hosting both from snapshots.
struct World {
  data::Dataset train;
  data::Dataset test;
  core::WatermarkConfig wm_config;
  std::optional<core::WatermarkedModel> wm;
  /// The set-up's own CreateWatermark, timed alone: wall and process CPU.
  double embed_s = 0;
  double embed_cpu_s = 0;
  std::shared_ptr<const predict::FlatEnsemble> suspect_flat;
  std::shared_ptr<const predict::FlatEnsemble> hot_flat;
  uint32_t suspect_checksum = 0;
  predict::VoteMatrix suspect_votes;  ///< in-process votes on every test row
  predict::VoteMatrix hot_votes;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<wire::SocketServer> server;
  std::string dir;

  ~World() {
    if (server) server->Shutdown();
    if (registry) registry->Shutdown();
    if (!dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

core::WatermarkConfig MakeWatermarkConfig() {
  core::WatermarkConfig config;  // examples/ownership_dispute.cpp's config
  config.seed = kWatermarkSeed;
  config.trigger_fraction = 0.02;
  config.trigger_training.weight_increment = 2.0;
  config.trigger_training.max_boost_rounds = 200;
  return config;
}

uint32_t Checksum(const forest::RandomForest& model) {
  return io::EnsembleChecksum(
      predict::FlatEnsemble::FromClassificationTrees(model.trees()));
}

std::string SnapshotPath(const World& world, const std::string& model_id) {
  return world.dir + "/" + model_id + ".twsn";
}

/// Starts a registry that loads both models from their snapshots, and a
/// registry-mode server in front of it.
Status StartServer(World* world) {
  serve::ModelRegistryOptions registry_options;
  registry_options.serving.queue.capacity = kQueueCapacity;
  registry_options.serving.queue.shed_high_water = kShedHighWater;
  registry_options.serving.batch.max_batch_rows = kMaxBatchRows;
  registry_options.serving.batch.max_batch_delay =
      std::chrono::microseconds(kMaxBatchDelayUs);
  registry_options.serving.predictor.num_threads = 1;
  TREEWM_ASSIGN_OR_RETURN(world->registry,
                          serve::ModelRegistry::Create(registry_options));
  {
    ScopedSpan s("io.snapshot_load");
    for (const char* id : {"suspect", "hot"}) {
      TREEWM_RETURN_IF_ERROR(world->registry->LoadFromSnapshot(id, SnapshotPath(*world, id)));
    }
  }
  wire::SocketServerOptions server_options;
  server_options.default_model = "suspect";
  server_options.max_connections = 16;
  // The model's shed high-water is the admission gate under test; keep the
  // per-connection pipelining cap out of its way.
  server_options.max_in_flight_per_connection = 4096;
  ScopedSpan s("setup.server_start");
  TREEWM_ASSIGN_OR_RETURN(world->server,
                          wire::SocketServer::Create(world->registry.get(), server_options));
  return Status::OK();
}

Result<std::unique_ptr<World>> SetUp(const Run& run, int rep) {
  const WorkloadSpec& spec = *run.spec;
  ScopedSpan span("setup", static_cast<uint64_t>(rep));
  auto world = std::make_unique<World>();
  Rng rng(kSplitSeed);
  {
    ScopedSpan s("setup.data");
    TREEWM_ASSIGN_OR_RETURN(data::Dataset all,
                            data::synthetic::MakeByName(spec.dataset, kDataSeed, spec.rows));
    TREEWM_ASSIGN_OR_RETURN(data::TrainTest split, data::MakeTrainTest(all, 0.3, &rng));
    world->train = std::move(split.train);
    world->test = std::move(split.test);
  }
  const core::Signature sigma = core::Signature::Random(spec.num_trees, 0.5, &rng);
  world->wm_config = MakeWatermarkConfig();
  {
    ScopedSpan s("setup.embed");
    const auto start = SteadyClock::now();
    const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    TREEWM_ASSIGN_OR_RETURN(
        core::WatermarkedModel wm,
        core::Watermarker(world->wm_config).CreateWatermark(world->train, sigma));
    world->embed_s = SecondsSince(start);
    world->embed_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    world->wm.emplace(std::move(wm));
  }
  world->suspect_flat = std::make_shared<const predict::FlatEnsemble>(
      predict::FlatEnsemble::FromClassificationTrees(world->wm->model.trees()));
  {
    ScopedSpan s("setup.hot_fit");
    forest::ForestConfig hot_config;
    hot_config.num_trees = kHotTrees;
    hot_config.tree = world->wm->tuned_config;
    hot_config.tree.max_depth = kHotMaxDepth;
    hot_config.seed = kHotSeed;
    TREEWM_ASSIGN_OR_RETURN(forest::RandomForest hot,
                            forest::RandomForest::Fit(world->train, {}, hot_config));
    world->hot_flat = std::make_shared<const predict::FlatEnsemble>(
        predict::FlatEnsemble::FromClassificationTrees(hot.trees()));
  }
  world->suspect_checksum = io::EnsembleChecksum(*world->suspect_flat);

  world->dir = run.options.work_dir + "/" + spec.name + "-" +
               std::to_string(::getpid()) + "-" + std::to_string(rep);
  std::error_code ec;
  std::filesystem::create_directories(world->dir, ec);
  if (ec) return Status::IoError("cannot create " + world->dir);
  {
    ScopedSpan s("io.snapshot_write");
    TREEWM_RETURN_IF_ERROR(
        io::SaveEnsembleSnapshot(*world->suspect_flat, SnapshotPath(*world, "suspect")));
    TREEWM_RETURN_IF_ERROR(
        io::SaveEnsembleSnapshot(*world->hot_flat, SnapshotPath(*world, "hot")));
  }

  TREEWM_RETURN_IF_ERROR(StartServer(world.get()));
  return world;
}

/// One timed set-up (a sample of setup_s), plus the in-process votes the
/// served answers are checked against.
std::unique_ptr<World> TimedSetUp(Run* run, int round, std::vector<double>* seconds) {
  const auto start = SteadyClock::now();
  auto built = SetUp(*run, round);
  seconds->push_back(SecondsSince(start));
  if (!run->Op(built.status(), "set-up")) return nullptr;
  std::unique_ptr<World> world = std::move(built).MoveValue();
  predict::BatchOptions serial;
  serial.num_threads = 1;
  world->suspect_votes =
      predict::BatchPredictor(world->suspect_flat, serial).PredictAllVotes(world->test);
  world->hot_votes =
      predict::BatchPredictor(world->hot_flat, serial).PredictAllVotes(world->test);
  if (round == 0) {
    std::printf("# set-up: %zu train / %zu test rows, trigger %zu, checksum %08x, "
                "tuned depth %d, adjusted depth %d leaves %d\n",
                world->train.num_rows(), world->test.num_rows(),
                world->wm->trigger_set.num_rows(), world->suspect_checksum,
                world->wm->tuned_config.max_depth, world->wm->adjusted_config.max_depth,
                world->wm->adjusted_config.max_leaf_nodes);
  }
  return world;
}

// -------------------------------------------------------------- embed ----

/// CreateWatermark phase by phase, in its RNG order, under spans. The
/// assembled model must equal CreateWatermark's bit for bit.
Result<forest::RandomForest> TracedEmbed(const World& world, Run* run) {
  const core::WatermarkConfig& config = world.wm_config;
  const data::Dataset& train = world.train;
  const size_t m = world.wm->signature.length();
  ScopedSpan root("core.embed");
  Rng rng(config.seed);

  tree::TreeConfig tuned = config.trigger_training.forest.tree;
  {
    ScopedSpan s("forest.grid_search");
    forest::GridSearchConfig grid = config.grid;
    grid.forest_template = config.trigger_training.forest;
    grid.seed = rng.NextUint64();
    TREEWM_ASSIGN_OR_RETURN(forest::GridSearchOutcome outcome,
                            forest::GridSearch(train, m, grid));
    tuned = outcome.best;
  }
  size_t k = static_cast<size_t>(
      std::llround(config.trigger_fraction * static_cast<double>(train.num_rows())));
  k = std::max<size_t>(k, 1);
  std::vector<size_t> trigger;
  {
    ScopedSpan s("data.sample_trigger");
    TREEWM_ASSIGN_OR_RETURN(trigger, data::SampleTriggerIndices(train, k, &rng));
  }
  tree::TreeConfig adjusted;
  {
    ScopedSpan s("core.adjust");
    TREEWM_ASSIGN_OR_RETURN(
        adjusted, core::Watermarker::AdjustHyperparameters(
                      train, tuned, config.trigger_training.forest, m, rng.NextUint64(), k));
  }
  const size_t m_zero = world.wm->signature.NumZeros();
  const size_t m_one = m - m_zero;
  core::TriggerTrainingConfig t0_config = config.trigger_training;
  t0_config.forest.tree = adjusted;
  std::vector<tree::DecisionTree> t0_trees;
  std::vector<tree::DecisionTree> t1_trees;
  if (m_zero > 0) {
    ScopedSpan s("core.t0_train");
    t0_config.forest.num_trees = m_zero;
    t0_config.forest.seed = rng.NextUint64();
    TREEWM_ASSIGN_OR_RETURN(core::TriggerTrainingResult t0,
                            core::TrainWithTrigger(train, trigger, t0_config));
    run->layers.Set("core.t0_rounds", static_cast<double>(t0.boost_rounds), "count");
    t0_trees = t0.forest.trees();
  }
  if (m_one > 0) {
    data::Dataset flipped = train;
    {
      ScopedSpan s("core.flip");
      for (size_t idx : trigger) flipped.SetLabel(idx, -train.Label(idx));
    }
    ScopedSpan s("core.t1_train");
    core::TriggerTrainingConfig t1_config = t0_config;
    t1_config.forest.num_trees = m_one;
    t1_config.forest.seed = rng.NextUint64();
    TREEWM_ASSIGN_OR_RETURN(core::TriggerTrainingResult t1,
                            core::TrainWithTrigger(flipped, trigger, t1_config));
    run->layers.Set("core.t1_rounds", static_cast<double>(t1.boost_rounds), "count");
    t1_trees = t1.forest.trees();
  }
  ScopedSpan s("core.interleave");
  std::vector<tree::DecisionTree> interleaved;
  size_t next_t0 = 0;
  size_t next_t1 = 0;
  for (size_t i = 0; i < m; ++i) {
    interleaved.push_back(world.wm->signature.bit(i) == 0 ? t0_trees[next_t0++]
                                                  : t1_trees[next_t1++]);
  }
  return forest::RandomForest::FromTrees(std::move(interleaved));
}

/// The per-round retrain unit and the trigger check, timed on their own.
void TraceTrainUnits(const World& world, Run* run) {
  core::TriggerTrainingConfig config = world.wm_config.trigger_training;
  config.forest.tree = world.wm->adjusted_config;
  config.forest.num_trees = world.wm->signature.NumZeros();
  const std::vector<double> weights(world.train.num_rows(), 1.0);
  const auto sorted = tree::SortedColumns::Build(world.train);
  std::optional<forest::RandomForest> fitted;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan s("forest.fit");
    auto fit = forest::RandomForest::Fit(world.train, weights, config.forest, sorted);
    if (!run->Op(fit.status(), "RandomForest::Fit")) return;
    fitted.emplace(std::move(fit).MoveValue());
  }
  run->layers.Set("forest.fit_ms", Median(Tracer::Get().DurationsMs("forest.fit")), "ms");
  // The σ = 0 trees must classify every trigger instance correctly, so the
  // check scans all of them (on the full model it stops at the first σ = 1
  // tree).
  std::vector<tree::DecisionTree> t0_trees;
  for (size_t i = 0; i < world.wm->model.num_trees(); ++i) {
    if (world.wm->signature.bit(i) == 0) t0_trees.push_back(world.wm->model.trees()[i]);
  }
  auto t0 = forest::RandomForest::FromTrees(std::move(t0_trees));
  if (!run->Op(t0.status(), "RandomForest::FromTrees")) return;
  for (int i = 0; i < 20; ++i) {
    ScopedSpan s("core.trigger_check");
    const bool match =
        core::AllTreesMatchTrigger(t0.value(), world.train, world.wm->trigger_indices);
    if (i == 0) run->Check(match, "a sigma = 0 tree misses a trigger instance");
  }
  run->layers.Set("core.trigger_check_ms",
                  Median(Tracer::Get().DurationsMs("core.trigger_check")), "ms");
}

double TimedCreateWatermark(const World& world, Run* run) {
  const auto start = SteadyClock::now();
  auto wm = core::Watermarker(world.wm_config).CreateWatermark(world.train, world.wm->signature);
  const double elapsed = SecondsSince(start);
  if (!run->Op(wm.status(), "CreateWatermark")) return kInf;
  run->Check(Checksum(wm.value().model) == world.suspect_checksum,
             "CreateWatermark produced a different model for the same seed");
  return elapsed;
}

void EmbedChecks(const World& world, Run* run) {
  const double accuracy = world.wm->model.Accuracy(world.test);
  std::printf("# embed: rounds T0 %zu T1 %zu, held-out accuracy %.4f (floor %.2f)\n",
              world.wm->t0_boost_rounds, world.wm->t1_boost_rounds, accuracy,
              run->spec->accuracy_floor);
  run->Check(world.wm->t0_converged && world.wm->t1_converged,
             "trigger training did not converge");
  run->Check(accuracy >= run->spec->accuracy_floor, "held-out accuracy below the floor");
}

void EmbedTrace(const World& world, Run* run) {
  const double plain = TimedCreateWatermark(world, run);
  const auto start = SteadyClock::now();
  auto traced = TracedEmbed(world, run);
  const double traced_s = SecondsSince(start);
  if (!run->Op(traced.status(), "traced embed")) return;
  run->Check(Checksum(traced.value()) == world.suspect_checksum,
             "phase-by-phase embed differs from CreateWatermark");
  Tracer& t = Tracer::Get();
  run->layers.Set("forest.grid_search_s", Median(t.DurationsMs("forest.grid_search")) / 1e3, "s");
  run->layers.Set("core.adjust_s", Median(t.DurationsMs("core.adjust")) / 1e3, "s");
  run->layers.Set("core.t0_train_s", Median(t.DurationsMs("core.t0_train")) / 1e3, "s");
  run->layers.Set("core.t1_train_s", Median(t.DurationsMs("core.t1_train")) / 1e3, "s");
  run->layers.Set("core.embed.self_ms", Median(t.SelfMs("core.embed")), "ms");
  run->layers.Set("trace.embed_overhead_pct", 100.0 * (traced_s - plain) / plain, "%");
  TraceTrainUnits(world, run);
}

// ------------------------------------------------------------- verify ----

/// Forwards to a black box and wraps its batch query in a span, so a
/// Verify span's self time excludes the suspect's own work.
class SpannedBlackBox : public core::BlackBoxModel {
 public:
  SpannedBlackBox(const core::BlackBoxModel& inner, std::string span)
      : inner_(inner), span_(std::move(span)) {}
  size_t NumTrees() const override { return inner_.NumTrees(); }
  std::vector<int> QueryPredictAll(std::span<const float> x) const override {
    return inner_.QueryPredictAll(x);
  }
  predict::VoteMatrix QueryPredictAllVotes(const data::Dataset& batch) const override {
    ScopedSpan s(span_);
    return inner_.QueryPredictAllVotes(batch);
  }

 private:
  const core::BlackBoxModel& inner_;
  std::string span_;
};

bool SameReport(const core::VerificationReport& a, const core::VerificationReport& b) {
  return a.verified == b.verified && a.matching_instances == b.matching_instances &&
         a.trigger_size == b.trigger_size && a.bit_match_rate == b.bit_match_rate &&
         a.control_match_rate == b.control_match_rate &&
         a.log10_p_value == b.log10_p_value &&
         a.log10_bit_p_value == b.log10_bit_p_value;
}

/// Verify repeated for `budget_s` (at least 20 times); returns each
/// repeat's ms, or {} on a failure. Every report must equal `reference`.
/// `span` names the Verify span; its query span is `span` + ".query".
std::vector<double> TimeVerify(const core::BlackBoxModel& box,
                               const core::VerificationRequest& request,
                               const core::VerificationReport& reference,
                               const std::string& span, double budget_s,
                               const std::function<bool()>& box_ok, Run* run) {
  const SpannedBlackBox spanned(box, span + ".query");
  std::vector<double> ms;
  const auto stage = SteadyClock::now();
  while (ms.size() < 20 || SecondsSince(stage) < budget_s) {
    // Every repeat reuses the reference shuffle seed, so the reports match.
    Rng rng(run->options.seed);
    const auto start = SteadyClock::now();
    Result<core::VerificationReport> report = [&] {
      ScopedSpan s(span);
      return core::VerificationAuthority::Verify(spanned, request, &rng);
    }();
    ms.push_back(std::chrono::duration<double, std::milli>(SteadyClock::now() - start).count());
    if (!run->Op(report.status(), span)) return {};
    if (!box_ok()) {
      run->Op(Status::IoError("black box failed"), span);
      return {};
    }
    run->Check(SameReport(report.value(), reference), span + " report changed on a repeat");
    if (run->options.trace && ms.size() >= 20) break;
  }
  return ms;
}

// ------------------------------------------------------------ forgery ----

struct ForgeryTally {
  size_t attempts = 0, forged = 0, unsat = 0, budget = 0, revalidated = 0;
  uint64_t nodes = 0;
  bool operator==(const ForgeryTally&) const = default;
};

data::Dataset ForgeryAnchors(const World& world, const Run& run) {
  std::vector<size_t> rows(std::min(run.spec->forgery_anchors, world.test.num_rows()));
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Rng rng(run.options.seed);
  rng.Shuffle(&rows);  // order only: the per-anchor searches are independent
  return world.test.Subset(rows);
}

std::optional<ForgeryTally> UntracedForgery(const forest::RandomForest& model,
                                            const core::Signature& fake,
                                            const data::Dataset& anchors, Run* run) {
  ForgeryTally tally;
  for (double eps : kForgeryEpsilons) {
    attacks::ForgeryAttackConfig config;
    config.epsilon = eps;
    config.max_nodes_per_instance = kForgeryNodeBudget;
    auto report = attacks::RunForgeryAttack(model, fake, anchors, config);
    if (!run->Op(report.status(), "RunForgeryAttack")) return std::nullopt;
    const attacks::ForgeryAttackReport& r = report.value();
    run->Check(r.revalidated == r.forged, "a forged instance failed revalidation");
    tally.attempts += r.attempts;
    tally.forged += r.forged;
    tally.unsat += r.unsat;
    tally.budget += r.budget_exhausted;
    tally.revalidated += r.revalidated;
    tally.nodes += r.total_nodes;
  }
  return tally;
}

/// RunForgeryAttack's anchors per SolveBatch call (its kAnchorChunk).
constexpr size_t kAttackAnchorChunk = 32;

/// RunForgeryAttack's work, layer by layer and in its structure: per ε,
/// Compile both labels' arenas, SolveBatch the anchors in chunks on that
/// warm arena cache, then PatternHoldsBatch over the witnesses.
std::optional<ForgeryTally> TracedForgery(const forest::RandomForest& model,
                                          const core::Signature& fake,
                                          const data::Dataset& anchors, Run* run) {
  ScopedSpan root("attack.forgery");
  ForgeryTally tally;
  for (double eps : kForgeryEpsilons) {
    smt::ForgeryArenaCache cache;
    {
      ScopedSpan s("smt.compile");
      auto pos = smt::CompiledRequirements::Compile(model, fake.bits(), data::kPositive);
      auto neg = smt::CompiledRequirements::Compile(model, fake.bits(), data::kNegative);
      if (!run->Op(pos.status(), "Compile") || !run->Op(neg.status(), "Compile")) {
        return std::nullopt;
      }
      cache.positive = pos.value();
      cache.negative = neg.value();
    }
    smt::ForgeryBatchQuery query;
    query.signature_bits = fake.bits();
    query.epsilon = eps;
    query.max_nodes_per_anchor = kForgeryNodeBudget;
    data::Dataset witnesses[2] = {data::Dataset(anchors.num_features()),
                                  data::Dataset(anchors.num_features())};
    for (size_t begin = 0; begin < anchors.num_rows(); begin += kAttackAnchorChunk) {
      std::vector<size_t> rows;
      for (size_t i = begin; i < std::min(anchors.num_rows(), begin + kAttackAnchorChunk); ++i) {
        rows.push_back(i);
      }
      const data::Dataset chunk = anchors.Subset(rows);
      Result<std::vector<smt::ForgeryOutcome>> outcomes = [&] {
        ScopedSpan s("smt.solve");
        return smt::ForgerySolver::SolveBatch(model, query, chunk, &cache);
      }();
      if (!run->Op(outcomes.status(), "SolveBatch")) return std::nullopt;
      for (size_t i = 0; i < outcomes.value().size(); ++i) {
        const smt::ForgeryOutcome& o = outcomes.value()[i];
        ++tally.attempts;
        tally.nodes += o.nodes_explored;
        if (o.result == sat::SatResult::kSat) {
          ++tally.forged;
          const int label = chunk.Label(i);
          if (!witnesses[label > 0 ? 0 : 1].AddRow(o.witness, label).ok()) {
            return std::nullopt;
          }
        } else if (o.result == sat::SatResult::kUnsat) {
          ++tally.unsat;
        } else {
          ++tally.budget;
        }
      }
    }
    ScopedSpan s("smt.revalidate");
    for (int side = 0; side < 2; ++side) {
      if (witnesses[side].num_rows() == 0) continue;
      const int label = side == 0 ? data::kPositive : data::kNegative;
      for (uint8_t h : smt::ForgerySolver::PatternHoldsBatch(model, fake.bits(), label,
                                                             witnesses[side])) {
        tally.revalidated += h != 0 ? 1 : 0;
      }
    }
  }
  return tally;
}

/// Mallory's fixed attack instance and the counts every sweep must repeat.
struct ForgeryInputs {
  data::Dataset anchors;
  core::Signature fake;
  std::optional<ForgeryTally> reference;
};

ForgeryInputs MakeForgeryInputs(const World& world, const Run& run) {
  Rng fake_rng(kFakeSignatureSeed);
  return {ForgeryAnchors(world, run),
          core::Signature::Random(run.spec->num_trees, 0.5, &fake_rng), std::nullopt};
}

/// One sweep; false when it failed. Returns its seconds in `*seconds`.
bool TimedForgery(const World& world, ForgeryInputs* in, Run* run, double* seconds) {
  const auto start = SteadyClock::now();
  std::optional<ForgeryTally> tally = UntracedForgery(world.wm->model, in->fake, in->anchors, run);
  *seconds = SecondsSince(start);
  if (!tally) return false;
  if (!in->reference) {
    in->reference = tally;
    std::printf("# forgery: %zu anchors x %zu eps, forged %zu unsat %zu budget %zu "
                "nodes %llu\n",
                in->anchors.num_rows(), std::size(kForgeryEpsilons), tally->forged,
                tally->unsat, tally->budget, static_cast<unsigned long long>(tally->nodes));
  }
  run->Check(*tally == *in->reference, "forgery counts changed on a repeat");
  return true;
}

/// Sweeps while the next one is expected to end within the stage's budget
/// (at least one); every sweep is a sample of forgery_cpu_s.
void ForgeryRound(const World& world, ForgeryInputs* in, Run* run) {
  const auto stage = SteadyClock::now();
  double last = 0;
  do {
    const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    if (!TimedForgery(world, in, run, &last)) return;
    run->Sample("forgery_cpu_s", CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0, "s");
    run->Sample("forgery_s", last, "s", /*end_to_end=*/false);
  } while (SecondsSince(stage) + last <= run->Budget(0.30 / kPlacements));
}

void ForgeryTrace(const World& world, ForgeryInputs* in, Run* run) {
  // The untraced baseline is the faster of two sweeps: the first one pays
  // for cold caches, which the traced sweep after it would not.
  double plain = kInf;
  for (int i = 0; i < 2; ++i) {
    double s = 0;
    if (!TimedForgery(world, in, run, &s)) return;
    plain = std::min(plain, s);
  }
  const auto start = SteadyClock::now();
  std::optional<ForgeryTally> traced = TracedForgery(world.wm->model, in->fake, in->anchors, run);
  const double traced_s = SecondsSince(start);
  if (!traced) return;
  run->Check(*traced == *in->reference,
             "per-layer forgery counts differ from RunForgeryAttack");
  Tracer& t = Tracer::Get();
  double solve_ms = 0;
  for (double v : t.DurationsMs("smt.solve")) solve_ms += v;
  double revalidate_ms = 0;
  for (double v : t.DurationsMs("smt.revalidate")) revalidate_ms += v;
  const double attempts = static_cast<double>(traced->attempts);
  run->layers.Set("smt.compile_ms", Median(t.DurationsMs("smt.compile")), "ms");
  run->layers.Set("smt.solve_s", solve_ms / 1e3, "s");
  run->layers.Set("smt.nodes", static_cast<double>(traced->nodes), "count");
  run->layers.Set("smt.nodes_per_s", static_cast<double>(traced->nodes) / (solve_ms / 1e3),
                  "1/s");
  run->layers.Set("smt.forged_ratio", static_cast<double>(traced->forged) / attempts, "ratio");
  run->layers.Set("smt.budget_ratio", static_cast<double>(traced->budget) / attempts, "ratio");
  run->layers.Set("smt.revalidate_ms", revalidate_ms, "ms");
  run->layers.Set("trace.forgery_overhead_pct", 100.0 * (traced_s - plain) / plain, "%");
}

// -------------------------------------------------------------- serve ----

double PercentileMs(std::vector<double> latencies, double q) {
  return Quantile(&latencies, q);
}

struct ServeTotals {
  uint64_t sent = 0;
  uint64_t errors = 0;  ///< failed, unanswered, wrong votes, suspect refusals
  std::vector<double> lateness_ms;  ///< the pacer's, every request
  // Server counters, summed over every server of the run.
  uint64_t hot_queue_high_water = 0;  ///< the highest
  uint64_t degraded_flushes = 0;
  uint64_t refusals = 0;
  uint64_t dropped = 0;
  uint64_t transport_errors = 0;
};

/// Folds one open-loop phase into the totals and the run's checks. Stream
/// 0 is always the watermarked model, whose refusals are errors.
void Account(const OpenLoopOutcome& outcome, const char* phase, ServeTotals* totals,
             Run* run) {
  for (size_t s = 0; s < outcome.streams.size(); ++s) {
    const StreamOutcome& o = outcome.streams[s];
    totals->sent += o.sent;
    uint64_t errors = o.failed + o.wrong_votes;
    if (s == 0) errors += o.shed;
    totals->errors += errors;
    run->attempted += o.sent;
    run->failed += errors;
    run->Check(o.wrong_votes == 0,
               std::string(phase) + ": a served answer differs from in-process votes");
  }
  totals->lateness_ms.insert(totals->lateness_ms.end(), outcome.lateness_ms.begin(),
                            outcome.lateness_ms.end());
}

/// Folds one saturation phase into the totals and the run's checks. Its
/// window stays below the shed high-water mark, so a refusal is an error.
void Account(const SaturationOutcome& o, const std::string& phase, ServeTotals* totals,
             Run* run) {
  const uint64_t errors = o.failed + o.wrong_votes + o.shed;
  totals->sent += o.sent;
  totals->errors += errors;
  run->attempted += o.sent;
  run->failed += errors;
  run->Check(o.wrong_votes == 0, phase + ": a served answer differs from in-process votes");
}

void PrintLatency(const char* phase, const StreamOutcome& o, const OpenLoopOutcome& all) {
  std::printf("# %s: sent %zu ok %zu shed %zu failed %zu, p50 %.3f p90 %.3f p99 %.3f ms "
              "(%zu samples), generator late p50 %.3f p99 %.3f ms\n",
              phase, o.sent, o.ok, o.shed, o.failed, PercentileMs(o.latency_ms, 0.5),
              PercentileMs(o.latency_ms, 0.9), PercentileMs(o.latency_ms, 0.99),
              o.latency_ms.size(), PercentileMs(all.lateness_ms, 0.5),
              PercentileMs(all.lateness_ms, 0.99));
}

/// Mean rows per batch of one model over an interval, from the registry's
/// counters.
struct BatchCounter {
  const serve::ModelRegistry* registry;
  std::string id;
  uint64_t batches = 0, rows = 0;
  void Start() {
    auto info = registry->Info(id);
    if (info.ok()) {
      batches = info.value().serving.batches;
      rows = info.value().serving.batched_rows;
    }
  }
  double MeanRows() const {
    auto info = registry->Info(id);
    if (!info.ok()) return 0;
    const double b = static_cast<double>(info.value().serving.batches - batches);
    return b == 0 ? 0 : static_cast<double>(info.value().serving.batched_rows - rows) / b;
  }
};

/// Per-layer probes of the serving path, closed loop: a registry round
/// trip, a wire round trip, and the predictor on 1- and 64-row blocks.
void TraceServeProbes(const World& world, Run* run) {
  constexpr int kCalls = 2000;
  std::vector<double> us;
  for (int i = 0; i < kCalls; ++i) {
    const auto start = SteadyClock::now();
    auto r = world.registry->Predict("suspect", world.test.Row(i % world.test.num_rows()));
    us.push_back(std::chrono::duration<double, std::micro>(SteadyClock::now() - start).count());
    if (!run->Op(r.status(), "registry Predict")) return;
  }
  run->layers.Set("serve.registry.rtt_us", Median(us), "us");

  wire::SocketClientOptions client_options;
  client_options.port = world.server->port();
  client_options.model_id = "suspect";
  wire::SocketClient client(client_options);
  us.clear();
  for (int i = 0; i < kCalls; ++i) {
    const size_t row = i % world.test.num_rows();
    const auto start = SteadyClock::now();
    auto r = client.Predict(world.test.Row(row));
    us.push_back(std::chrono::duration<double, std::micro>(SteadyClock::now() - start).count());
    if (!run->Op(r.status(), "SocketClient Predict")) return;
    const auto expected = world.suspect_votes.row(row);
    run->Check(std::equal(expected.begin(), expected.end(), r.value().votes.begin(),
                          r.value().votes.end()),
               "wire answer differs from in-process votes");
  }
  run->layers.Set("serve.wire.rtt_us", Median(us), "us");

  predict::BatchOptions serial;
  serial.num_threads = 1;
  const auto block = [&](const char* name,
                         const std::shared_ptr<const predict::FlatEnsemble>& flat,
                         size_t rows) {
    std::vector<size_t> idx(rows);
    for (size_t i = 0; i < rows; ++i) idx[i] = i;
    const data::Dataset batch = world.test.Subset(idx);
    const predict::BatchPredictor predictor(flat, serial);
    std::vector<double> samples;
    for (int i = 0; i < 300; ++i) {
      const auto start = SteadyClock::now();
      const predict::VoteMatrix votes = predictor.PredictAllVotes(batch);
      samples.push_back(
          std::chrono::duration<double, std::micro>(SteadyClock::now() - start).count());
      if (votes.num_rows() != rows) run->Check(false, "predictor returned a short block");
    }
    run->layers.Set(name, Median(samples), "us");
  };
  block("predict.suspect.row1_us", world.suspect_flat, 1);
  block("predict.suspect.row64_us", world.suspect_flat, 64);
  block("predict.hot.row1_us", world.hot_flat, 1);
  block("predict.hot.row64_us", world.hot_flat, 64);
}

/// Stops the server and its registry; every accounting identity must then
/// close. Their counters are added to the totals.
void ServeFinish(World* world, ServeTotals* totals, Run* run) {
  const auto hot_info = world->registry->Info("hot");
  world->server->Shutdown();
  world->registry->Shutdown();
  const wire::WireStats ws = world->server->stats();
  const serve::RegistryStats rs = world->registry->stats();
  run->Check(ws.requests_received + ws.models_requests ==
                 ws.responses_sent + ws.refusals_sent + ws.responses_dropped,
             "wire accounting identity");
  run->Check(rs.submitted ==
                 rs.serving.submitted + rs.refused_unknown_model + rs.refused_not_serving,
             "registry accounting identity");
  run->Check(rs.serving.submitted == rs.serving.admitted + rs.serving.rejected_full +
                                         rs.serving.rejected_shed +
                                         rs.serving.rejected_shutdown +
                                         rs.serving.rejected_invalid +
                                         rs.serving.expired_admission,
             "front-end admission identity");
  run->Check(rs.serving.admitted == rs.serving.completed_ok + rs.serving.expired_dispatch +
                                        rs.serving.expired_completion,
             "front-end completion identity");
  if (hot_info.ok()) {
    totals->hot_queue_high_water =
        std::max(totals->hot_queue_high_water, hot_info.value().serving.queue_high_water);
  }
  totals->degraded_flushes += rs.serving.degraded_flushes;
  totals->refusals += ws.refusals_sent;
  totals->dropped += ws.responses_dropped;
  totals->transport_errors += ws.transport_errors;
  world->server.reset();
  world->registry.reset();
}

/// Saturates each model alone with a closed loop on the running server;
/// each phase is one sample of serve.<model>.cpu_us, the server's CPU time
/// per answer.
void CapacityPhases(World* world, uint64_t seed, ServeTotals* totals, Run* run) {
  struct Model {
    const char* id;
    const predict::VoteMatrix* votes;
  };
  const double budget = run->Budget((run->options.trace ? 0.05 : 0.30) / kPlacements);
  for (const Model& model : {Model{"suspect", &world->suspect_votes},
                             Model{"hot", &world->hot_votes}}) {
    BatchCounter batches{world->registry.get(), model.id};
    batches.Start();
    const double process0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const double client0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const SaturationOutcome o = RunSaturated(world->server->port(), model.id, world->test,
                                             *model.votes, kSaturationWindow, budget, seed++);
    const double client_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - client0;
    const double server_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - process0 - client_s;
    const std::string prefix = std::string("serve.") + model.id;
    Account(o, prefix + ".capacity", totals, run);
    const double answers = static_cast<double>(std::max<size_t>(o.ok, 1));
    run->Sample(prefix + ".cpu_us", server_s * 1e6 / answers, "us");
    run->Sample(prefix + ".capacity_rps", o.rps, "1/s", /*end_to_end=*/false);
    run->layers.Set(std::string("serve.sat_") + model.id + ".mean_batch_rows",
                    batches.MeanRows(), "rows");
    std::printf("# %s.capacity: sent %zu ok %zu shed %zu failed %zu, %.0f rps, server %.2f "
                "client %.2f cpu us per answer\n",
                prefix.c_str(), o.sent, o.ok, o.shed, o.failed, o.rps, server_s * 1e6 / answers,
                client_s * 1e6 / answers);
  }
}

/// The rest of a round's serving: Charlie's Verify through the wire, and
/// with tracing on the open-loop phases (a) and (c).
void ServeRound(World* world, const core::VerificationRequest& request,
                const core::VerificationReport& reference, uint64_t seed, ServeTotals* totals,
                Run* run) {
  const WorkloadSpec& spec = *run->spec;
  const bool trace = run->options.trace;
  const uint16_t port = world->server->port();

  // (b) Charlie's disguised batch through the wire, windowed; every report
  // must equal the in-process one.
  BatchCounter batches{world->registry.get(), "suspect"};
  auto box = WireBlackBox::Connect(port, "suspect", spec.num_trees, kVerifyWindow);
  if (run->Op(box.status(), "wire black box connect")) {
    const WireBlackBox& wire_box = *box.value();
    batches.Start();
    const std::vector<double> ms = TimeVerify(
        wire_box, request, reference, "core.verify_wire", run->Budget(0.04),
        [&] { return wire_box.status().ok(); }, run);
    run->layers.Set("verify_wire_ms", Median(ms), "ms");
    run->layers.Set("verify_wire.mean_batch_rows", batches.MeanRows(), "rows");
    if (trace) {
      Tracer& t = Tracer::Get();
      run->layers.Set("core.verify_wire.query_ms",
                      Median(t.DurationsMs("core.verify_wire.query")), "ms");
      run->layers.Set("core.verify_wire.self_ms", Median(t.SelfMs("core.verify_wire")), "ms");
      run->layers.Set("verify_wire.window_ms", Median(t.DurationsMs("verify_wire.window")),
                      "ms");
      run->layers.Set("serve.wire.encode_us", wire_box.encode_us_per_row(), "us");
      run->layers.Set("serve.wire.decode_us", wire_box.decode_us_per_row(), "us");
    }
    std::printf("# verify_wire: median %.3f ms of %zu\n", Median(ms), ms.size());
  }
  if (!trace) return;

  // (a) open-loop single-row traffic to the watermarked model alone, low
  // then high.
  StreamSpec suspect{"suspect", kLoRps, &world->test, &world->suspect_votes};
  for (const bool high : {false, true}) {
    StreamSpec stream = suspect;
    stream.rate_rps = high ? kHiRps : kLoRps;
    batches.Start();
    const OpenLoopOutcome outcome =
        RunOpenLoop(port, {stream}, run->Budget(0.15), seed + (high ? 2 : 1));
    const std::string phase = high ? "serve.hi" : "serve.lo";
    Account(outcome, phase.c_str(), totals, run);
    PrintLatency(phase.c_str(), outcome.streams[0], outcome);
    run->layers.Set(phase + ".p50_ms", PercentileMs(outcome.streams[0].latency_ms, 0.5), "ms");
    run->layers.Set(phase + ".mean_batch_rows", batches.MeanRows(), "rows");
  }

  // (c) the watermarked model at the low rate beside the hot model climbing
  // its ladder. The cold rung, hot at about half its capacity, gives
  // serve.cold.*: below overload, so the cold latency is the other model's
  // interference, not the time to drain a full hot queue. The climb stops at
  // the first rung that misses the p90 limit or sheds; the cold rung and the
  // top rung, about twice capacity, always run, three times as long as the
  // others.
  const size_t rungs = std::size(kHotLadderRps);
  const double rung_s = run->Budget(0.40) / static_cast<double>(rungs + 4);
  double max_rps = 0;
  bool climbing = true;
  BatchCounter hot_batches{world->registry.get(), "hot"};
  for (size_t r = 0; r < rungs; ++r) {
    const bool cold_rung = r == kColdRung;
    const bool top = r + 1 == rungs;
    if (!climbing && !cold_rung && !top) continue;
    const double rate = kHotLadderRps[r];
    StreamSpec hot{"hot", rate, &world->test, &world->hot_votes};
    if (top) hot_batches.Start();
    const OpenLoopOutcome outcome =
        RunOpenLoop(port, {suspect, hot}, cold_rung || top ? 3 * rung_s : rung_s,
                    seed + 100 + r);
    Account(outcome, "serve.ladder", totals, run);
    const StreamOutcome& h = outcome.streams[1];
    const double hot_p90 = PercentileMs(h.latency_ms, 0.9);
    if (climbing && hot_p90 <= kHotP90LimitMs && h.shed == 0 && h.failed == 0) {
      max_rps = rate;
    } else {
      climbing = false;
    }
    char label[64];
    std::snprintf(label, sizeof(label), "ladder %.0f rps hot", rate);
    PrintLatency(label, h, outcome);
    std::snprintf(label, sizeof(label), "ladder %.0f rps suspect", rate);
    PrintLatency(label, outcome.streams[0], outcome);
    if (cold_rung) {
      const StreamOutcome& cold = outcome.streams[0];
      run->layers.Set("serve.cold.p50_ms", PercentileMs(cold.latency_ms, 0.5), "ms");
      run->layers.Set("serve.cold.p90_ms", PercentileMs(cold.latency_ms, 0.9), "ms");
    }
    if (top) {
      const double goodput = static_cast<double>(h.ok) / outcome.duration_s;
      std::printf("# ladder top: hot goodput %.0f rps\n", goodput);
      run->layers.Set("serve.hot.goodput_rps", goodput, "1/s");
      run->layers.Set("serve.hot.shed_ratio",
                      static_cast<double>(h.shed) / static_cast<double>(h.sent), "ratio");
      run->layers.Set("serve.hot.mean_batch_rows", hot_batches.MeanRows(), "rows");
    }
  }
  run->layers.Set("serve.hot.max_rps", max_rps, "1/s");
}

// --------------------------------------------------------------- main ----

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--work-dir") {
      options->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0;
}

int Main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run.options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == run.options.workload) run.spec = &spec;
  }
  if (run.spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", run.options.workload.c_str());
    return 2;
  }
  if (run.options.trace) {
    // Per-layer numbers carry no bound, so one round suffices.
    Tracer::Get().Enable();
    run.rounds = 1;
  }
  // Load shedding is expected at the top of the ladder; its per-request
  // warnings would flood stderr.
  SetLogLevel(LogLevel::kError);

  // Each round runs on a fresh set-up, so the server's threads are placed
  // anew, and setup_s gets one sample per round.
  std::vector<double> setup_seconds;
  std::optional<ForgeryInputs> forgery;
  std::optional<core::VerificationReport> first_report;
  uint32_t first_checksum = 0;
  ServeTotals totals;
  for (int round = 0; round < run.rounds; ++round) {
    std::unique_ptr<World> world = TimedSetUp(&run, round, &setup_seconds);
    if (!world) break;
    // Charlie's in-process report; every round and path must reproduce it.
    core::VerificationRequest request{world->wm->signature, world->wm->trigger_set, world->test};
    const core::ForestBlackBox in_process(world->wm->model);
    Rng rng(run.options.seed);
    auto reference = core::VerificationAuthority::Verify(in_process, request, &rng);
    if (!run.Op(reference.status(), "Verify")) break;
    const core::VerificationReport& report = reference.value();
    if (!first_report) {
      first_report = report;
      first_checksum = world->suspect_checksum;
      std::printf("# verify: matched %zu/%zu, bit rate %.3f, control %.3f, log10 p %.1f\n",
                  report.matching_instances, report.trigger_size, report.bit_match_rate,
                  report.control_match_rate, report.log10_p_value);
      run.Check(report.verified, "a trigger instance does not match its signature bit");
      run.Check(report.conclusive(), "verification is not conclusive");
      EmbedChecks(*world, &run);
      forgery.emplace(MakeForgeryInputs(*world, run));
      if (run.options.trace) TraceServeProbes(*world, &run);
    }
    run.Check(SameReport(report, *first_report), "a fresh set-up changed Charlie's report");
    run.Check(world->suspect_checksum == first_checksum,
              "CreateWatermark produced a different model for the same seed");
    if (run.options.trace) {
      EmbedTrace(*world, &run);
    } else {
      run.Sample("embed_cpu_s", world->embed_cpu_s, "s");
      run.Sample("embed_s", world->embed_s, "s", /*end_to_end=*/false);
    }
    // In-process Verify is timed for the per-layer split and as a
    // diagnostic only: its median shifted by half between set-ups of one
    // process. Charlie's cost through the wire is per-layer too.
    std::printf("# verify: in-process median %.3f ms\n",
                Median(TimeVerify(in_process, request, report, "core.verify",
                                  run.Budget(0.02), [] { return true; }, &run)));
    // Forgery sweeps and capacity phases take turns, on a new server each
    // turn (a restart places the server's threads anew), so the samples of
    // each spread over the whole round.
    const uint64_t serve_seed = run.options.seed * 7919 + static_cast<uint64_t>(round) * 1000;
    for (size_t placement = 0; placement < kPlacements && world->server; ++placement) {
      if (!run.options.trace) {
        ForgeryRound(*world, &*forgery, &run);
      } else if (placement == 0) {
        ForgeryTrace(*world, &*forgery, &run);
      }
      // Peak memory of the offline pipeline: set-up, embed, verify, forgery.
      // Serving is left out; its buffers grow with however far the host let
      // the server fall behind.
      if (round == 0 && placement == 0) run.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
      if (placement > 0) {
        ServeFinish(world.get(), &totals, &run);
        if (!run.Op(StartServer(world.get()), "server restart")) break;
      }
      CapacityPhases(world.get(), serve_seed + 10 + 2 * placement, &totals, &run);
    }
    if (world->server) {
      ServeRound(world.get(), request, report, serve_seed, &totals, &run);
      ServeFinish(world.get(), &totals, &run);
    }
  }
  if (!setup_seconds.empty()) run.e2e.Set("setup_s", Median(setup_seconds), "s");
  run.ReportMedians();
  std::printf("# serve: sent %llu errors %llu\n", static_cast<unsigned long long>(totals.sent),
              static_cast<unsigned long long>(totals.errors));
  if (!totals.lateness_ms.empty()) {
    std::printf("# open loop: generator lateness p50 %.3f p99 %.3f ms (%zu samples)\n",
                PercentileMs(totals.lateness_ms, 0.5), PercentileMs(totals.lateness_ms, 0.99),
                totals.lateness_ms.size());
  }

  if (run.options.trace) {
    Tracer& t = Tracer::Get();
    run.layers.Set("io.snapshot_load_ms", Median(t.DurationsMs("io.snapshot_load")), "ms");
    run.layers.Set("core.verify.query_ms", Median(t.DurationsMs("core.verify.query")), "ms");
    run.layers.Set("core.verify.self_ms", Median(t.SelfMs("core.verify")), "ms");
    run.layers.Set("gen.late_p99_ms", PercentileMs(totals.lateness_ms, 0.99), "ms");
    run.layers.Set("serve.queue_high_water", static_cast<double>(totals.hot_queue_high_water),
                   "count");
    run.layers.Set("serve.degraded_flushes", static_cast<double>(totals.degraded_flushes),
                   "count");
    run.layers.Set("serve.wire.refusals", static_cast<double>(totals.refusals), "count");
    run.layers.Set("serve.wire.dropped", static_cast<double>(totals.dropped), "count");
    run.layers.Set("serve.wire.transport_errors", static_cast<double>(totals.transport_errors),
                   "count");
    run.layers.Set("serve.peak_rss_mb", PeakRssMb(), "MB");
    for (const char* id : {"suspect", "hot"}) {
      const std::string name = std::string("serve.") + id + ".capacity_rps";
      run.layers.Set(name, run.SampleMedian(name), "1/s");
    }
    const std::string path = run.options.work_dir + "/trace-" + run.spec->name + "-seed" +
                             std::to_string(run.options.seed) + ".json";
    run.Check(Tracer::Get().WriteJson(path), "cannot write " + path);
    run.layers.Set("trace.spans", static_cast<double>(Tracer::Get().num_spans()), "count");
    std::printf("# trace: %zu spans written to %s\n", Tracer::Get().num_spans(),
                path.c_str());
  }
  const MetricTable& metrics = run.options.trace ? run.layers : run.e2e;
  const bool ok = run.correct && run.failed == 0 && metrics.AllFinite();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              ok ? "true" : "false", static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), metrics.ToJson().c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
