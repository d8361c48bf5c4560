#include "serve/registry/model_registry.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "io/ensemble_snapshot.h"

namespace treewm::serve {
namespace {

/// Sums every monotone counter of `from` into `into` (high-water style
/// fields take the max — they are per-front-end observations, not totals).
void AccumulateServingStats(ServingStats* into, const ServingStats& from) {
  into->submitted += from.submitted;
  into->admitted += from.admitted;
  into->completed_ok += from.completed_ok;
  into->rejected_full += from.rejected_full;
  into->rejected_shed += from.rejected_shed;
  into->rejected_shutdown += from.rejected_shutdown;
  into->rejected_invalid += from.rejected_invalid;
  into->expired_admission += from.expired_admission;
  into->expired_dispatch += from.expired_dispatch;
  into->expired_completion += from.expired_completion;
  into->batches += from.batches;
  into->batched_rows += from.batched_rows;
  into->degraded_flushes += from.degraded_flushes;
  into->queue_high_water = std::max(into->queue_high_water, from.queue_high_water);
  into->max_batch_rows = std::max(into->max_batch_rows, from.max_batch_rows);
}

constexpr size_t kMaxModelIdChars = 256;

}  // namespace

const char* ModelStateName(ModelState state) {
  switch (state) {
    case ModelState::kLoading:
      return "LOADING";
    case ModelState::kServing:
      return "SERVING";
    case ModelState::kDraining:
      return "DRAINING";
    case ModelState::kUnloaded:
      return "UNLOADED";
    case ModelState::kFailed:
      return "FAILED";
  }
  return "UNKNOWN";
}

/// One model. The entry mutex is held only for pointer swaps, counter
/// reads, and the (non-blocking) push into the current front-end — never
/// across front-end construction or drain.
struct ModelRegistry::Entry {
  explicit Entry(std::string model_id) : id(std::move(model_id)) {}

  const std::string id;

  mutable Mutex mutex;
  ModelState state TREEWM_GUARDED_BY(mutex) = ModelState::kLoading;
  std::shared_ptr<ServingFrontEnd> front_end TREEWM_GUARDED_BY(mutex);
  uint32_t checksum TREEWM_GUARDED_BY(mutex) = 0;
  uint64_t reloads TREEWM_GUARDED_BY(mutex) = 0;
  uint64_t reload_failures TREEWM_GUARDED_BY(mutex) = 0;
  uint64_t consecutive_reload_failures TREEWM_GUARDED_BY(mutex) = 0;
  bool reload_in_progress TREEWM_GUARDED_BY(mutex) = false;
  bool breaker_open TREEWM_GUARDED_BY(mutex) = false;
  Status last_error TREEWM_GUARDED_BY(mutex) = Status::OK();
  /// Counters of front-ends this entry retired via reload swaps.
  ServingStats retired TREEWM_GUARDED_BY(mutex);

  ModelEntryInfo InfoLocked() const TREEWM_REQUIRES(mutex) {
    ModelEntryInfo info;
    info.id = id;
    info.state = state;
    info.checksum = checksum;
    info.reloads = reloads;
    info.reload_failures = reload_failures;
    info.breaker_open = breaker_open;
    info.last_error = last_error;
    info.serving = retired;
    if (front_end != nullptr) {
      AccumulateServingStats(&info.serving, front_end->stats());
    }
    return info;
  }
};

Result<std::unique_ptr<ModelRegistry>> ModelRegistry::Create(
    ModelRegistryOptions options) {
  if (options.max_models == 0) {
    return Status::InvalidArgument("registry needs max_models >= 1");
  }
  if (options.reload_breaker_threshold == 0) {
    return Status::InvalidArgument("registry needs reload_breaker_threshold >= 1");
  }
  if (options.serving.queue.policy != OverflowPolicy::kReject) {
    // Submits push under the entry lock so an atomic swap can guarantee
    // every request lands in exactly one front-end; a blocking push would
    // hold that lock until a deadline.
    return Status::InvalidArgument(
        "registry bulkheads require OverflowPolicy::kReject");
  }
  return std::unique_ptr<ModelRegistry>(new ModelRegistry(std::move(options)));
}

ModelRegistry::ModelRegistry(ModelRegistryOptions options)
    : options_(std::move(options)) {}

ModelRegistry::~ModelRegistry() { Shutdown(); }

Result<std::unique_ptr<ServingFrontEnd>> ModelRegistry::BuildFrontEnd(
    std::shared_ptr<const predict::FlatEnsemble> image) const {
  // Fault site: a model image whose front-end cannot come up (bad file,
  // resource exhaustion at construction, ...). Load leaves the entry
  // FAILED; reload keeps the old image serving and feeds the breaker.
  if (TREEWM_FAULT_FIRED("serve.registry.load.fail")) {
    return Status::Internal("injected model load failure");
  }
  return ServingFrontEnd::Create(std::move(image), options_.serving);
}

Result<std::shared_ptr<ModelRegistry::Entry>> ModelRegistry::BeginLoad(
    const std::string& id) {
  if (id.empty() || id.size() > kMaxModelIdChars) {
    return Status::InvalidArgument("model id must be 1..256 characters");
  }
  MutexLock lock(&map_mutex_);
  if (shutdown_) return Status::FailedPrecondition("registry is shut down");
  if (models_.contains(id)) {
    return Status::AlreadyExists(StrFormat("model '%s' already exists", id.c_str()));
  }
  if (models_.size() >= options_.max_models) {
    return Status::ResourceExhausted(
        StrFormat("registry is at its %zu-model capacity", options_.max_models));
  }
  auto entry = std::make_shared<Entry>(id);
  models_.emplace(id, entry);
  return entry;
}

Status ModelRegistry::FinishLoad(const std::shared_ptr<Entry>& entry,
                                 Result<std::unique_ptr<ServingFrontEnd>> built,
                                 uint32_t checksum) {
  MutexLock lock(&entry->mutex);
  if (!built.ok()) {
    entry->state = ModelState::kFailed;
    entry->last_error = built.status();
    load_failures_.fetch_add(1, std::memory_order_relaxed);
    return built.status();
  }
  entry->front_end = std::shared_ptr<ServingFrontEnd>(built.MoveValue().release());
  entry->checksum = checksum;
  entry->state = ModelState::kServing;
  entry->last_error = Status::OK();
  loads_ok_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ModelRegistry::Load(const std::string& id,
                           std::shared_ptr<const predict::FlatEnsemble> image) {
  if (image == nullptr) return Status::InvalidArgument("null model image");
  TREEWM_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, BeginLoad(id));
  const uint32_t checksum = io::EnsembleChecksum(*image);
  return FinishLoad(entry, BuildFrontEnd(std::move(image)), checksum);
}

Status ModelRegistry::LoadFromSnapshot(const std::string& id,
                                       const std::string& path) {
  TREEWM_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, BeginLoad(id));
  Result<predict::FlatEnsemble> image = io::LoadEnsembleSnapshot(path);
  if (!image.ok()) return FinishLoad(entry, image.status(), 0);
  auto shared = std::make_shared<const predict::FlatEnsemble>(image.MoveValue());
  const uint32_t checksum = io::EnsembleChecksum(*shared);
  return FinishLoad(entry, BuildFrontEnd(std::move(shared)), checksum);
}

Result<std::shared_ptr<ModelRegistry::Entry>> ModelRegistry::BeginReload(
    const std::string& id) {
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(&map_mutex_);
    auto it = models_.find(id);
    if (it == models_.end()) {
      return Status::NotFound(StrFormat("model '%s' not found", id.c_str()));
    }
    entry = it->second;
  }
  MutexLock lock(&entry->mutex);
  if (entry->breaker_open) {
    return Status::FailedPrecondition(StrFormat(
        "model '%s' reload circuit breaker is open after %llu consecutive "
        "failures; unload and reload to reset",
        id.c_str(),
        static_cast<unsigned long long>(entry->consecutive_reload_failures)));
  }
  if (entry->state != ModelState::kServing) {
    return Status::FailedPrecondition(
        StrFormat("model '%s' is %s, not SERVING", id.c_str(),
                  ModelStateName(entry->state)));
  }
  if (entry->reload_in_progress) {
    return Status::FailedPrecondition(
        StrFormat("model '%s' reload already in progress", id.c_str()));
  }
  entry->reload_in_progress = true;
  return entry;
}

Status ModelRegistry::FinishReload(const std::shared_ptr<Entry>& entry,
                                   Result<std::unique_ptr<ServingFrontEnd>> built,
                                   uint32_t checksum) {
  // Fault site: the window between building the new front-end and
  // publishing it. A stall here must delay only this reload — the old
  // image keeps serving and other models are untouched.
  TREEWM_FAULT_FIRED("serve.registry.swap.stall");

  std::shared_ptr<ServingFrontEnd> old_front_end;
  {
    MutexLock lock(&entry->mutex);
    if (entry->state != ModelState::kServing) {
      entry->reload_in_progress = false;
      // Unloaded (or shut down) while the new image was building; the
      // freshly built front-end served nothing, so dropping it on the
      // floor loses no requests.
      return Status::FailedPrecondition(StrFormat(
          "model '%s' was unloaded during reload", entry->id.c_str()));
    }
    if (!built.ok()) {
      entry->reload_in_progress = false;
      entry->last_error = built.status();
      ++entry->reload_failures;
      ++entry->consecutive_reload_failures;
      reload_failures_.fetch_add(1, std::memory_order_relaxed);
      if (entry->consecutive_reload_failures >= options_.reload_breaker_threshold) {
        entry->breaker_open = true;
        breaker_trips_.fetch_add(1, std::memory_order_relaxed);
      }
      return built.status();
    }
    old_front_end = std::move(entry->front_end);
    entry->front_end = std::shared_ptr<ServingFrontEnd>(built.MoveValue().release());
    entry->checksum = checksum;
    entry->last_error = Status::OK();
    ++entry->reloads;
    entry->consecutive_reload_failures = 0;
    // reload_in_progress stays true through the drain below so Unload
    // cannot erase the entry before the old front-end's counters land in
    // entry->retired — that window would orphan them and break the
    // registry accounting identity.
  }
  // Drain OFF the lock: requests admitted before the swap finish on the
  // old image while new admissions already flow into the new one.
  old_front_end->Shutdown();
  const ServingStats retired = old_front_end->stats();
  old_front_end.reset();
  bool entry_gone = false;
  {
    MutexLock lock(&entry->mutex);
    entry->reload_in_progress = false;
    if (entry->state == ModelState::kServing) {
      AccumulateServingStats(&entry->retired, retired);
    } else {
      // Shutdown() (which does not wait on reloads) snatched the entry
      // mid-drain and already folded entry->retired into the unloaded
      // total; route the old front-end's counters there directly.
      entry_gone = true;
    }
  }
  if (entry_gone) {
    MutexLock lock(&retired_mutex_);
    AccumulateServingStats(&unloaded_serving_, retired);
  }
  reloads_ok_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ModelRegistry::Reload(const std::string& id,
                             std::shared_ptr<const predict::FlatEnsemble> image) {
  if (image == nullptr) return Status::InvalidArgument("null model image");
  TREEWM_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, BeginReload(id));
  const uint32_t checksum = io::EnsembleChecksum(*image);
  return FinishReload(entry, BuildFrontEnd(std::move(image)), checksum);
}

Status ModelRegistry::ReloadFromSnapshot(const std::string& id,
                                         const std::string& path) {
  TREEWM_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, BeginReload(id));
  Result<predict::FlatEnsemble> image = io::LoadEnsembleSnapshot(path);
  if (!image.ok()) return FinishReload(entry, image.status(), 0);
  auto shared = std::make_shared<const predict::FlatEnsemble>(image.MoveValue());
  const uint32_t checksum = io::EnsembleChecksum(*shared);
  return FinishReload(entry, BuildFrontEnd(std::move(shared)), checksum);
}

Status ModelRegistry::Unload(const std::string& id) {
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(&map_mutex_);
    auto it = models_.find(id);
    if (it == models_.end()) {
      return Status::NotFound(StrFormat("model '%s' not found", id.c_str()));
    }
    entry = it->second;
  }
  std::shared_ptr<ServingFrontEnd> front_end;
  {
    MutexLock lock(&entry->mutex);
    if (entry->reload_in_progress) {
      return Status::FailedPrecondition(
          StrFormat("model '%s' has a reload in flight", id.c_str()));
    }
    if (entry->state != ModelState::kServing &&
        entry->state != ModelState::kFailed) {
      return Status::FailedPrecondition(
          StrFormat("model '%s' is %s", id.c_str(), ModelStateName(entry->state)));
    }
    entry->state = ModelState::kDraining;
    front_end = std::move(entry->front_end);
  }
  {
    MutexLock lock(&map_mutex_);
    models_.erase(id);
  }
  ServingStats drained;
  if (front_end != nullptr) {
    front_end->Shutdown();
    drained = front_end->stats();
    front_end.reset();
  }
  ServingStats retired;
  {
    MutexLock lock(&entry->mutex);
    entry->state = ModelState::kUnloaded;
    retired = entry->retired;
    AccumulateServingStats(&retired, drained);
  }
  {
    MutexLock lock(&retired_mutex_);
    AccumulateServingStats(&unloaded_serving_, retired);
  }
  unloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void ModelRegistry::Submit(const std::string& id, std::span<const float> x,
                           const RequestOptions& options, CompletionFn done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(&map_mutex_);
    auto it = models_.find(id);
    if (it != models_.end()) entry = it->second;
  }
  if (entry == nullptr) {
    refused_unknown_model_.fetch_add(1, std::memory_order_relaxed);
    done(Status::NotFound(StrFormat("model '%s' not found", id.c_str())));
    return;
  }
  Status refusal = Status::OK();
  {
    // The push is a bounded non-blocking enqueue (kReject policy, enforced
    // at Create), so holding the entry lock across it is cheap — and is
    // exactly what makes the reload swap atomic: every submit lands in the
    // front-end that will be drained, never between two of them.
    MutexLock lock(&entry->mutex);
    if (entry->state != ModelState::kServing) {
      refused_not_serving_.fetch_add(1, std::memory_order_relaxed);
      Status cause = entry->last_error;
      refusal = Status::FailedPrecondition(StrFormat(
          "model '%s' is %s%s", id.c_str(), ModelStateName(entry->state),
          cause.ok() ? "" : (": " + cause.message()).c_str()));
    } else {
      refusal = entry->front_end->Admit(x, options, &done);
    }
  }
  // Refusals complete off the entry lock: a callback may call back in.
  if (!refusal.ok()) done(std::move(refusal));
}

std::future<Result<PredictResult>> ModelRegistry::SubmitPredict(
    const std::string& id, std::span<const float> x,
    const RequestOptions& options) {
  std::future<Result<PredictResult>> future;
  Submit(id, x, options, FutureCompletion(&future));
  return future;
}

Result<PredictResult> ModelRegistry::Predict(const std::string& id,
                                             std::span<const float> x,
                                             const RequestOptions& options) {
  return SubmitPredict(id, x, options).get();
}

Result<size_t> ModelRegistry::Pump(const std::string& id, bool force_flush) {
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(&map_mutex_);
    auto it = models_.find(id);
    if (it == models_.end()) {
      return Status::NotFound(StrFormat("model '%s' not found", id.c_str()));
    }
    entry = it->second;
  }
  std::shared_ptr<ServingFrontEnd> front_end;
  {
    MutexLock lock(&entry->mutex);
    if (entry->front_end == nullptr) {
      return Status::FailedPrecondition(
          StrFormat("model '%s' has no front-end", id.c_str()));
    }
    front_end = entry->front_end;
  }
  return front_end->Pump(force_flush);
}

Result<ModelEntryInfo> ModelRegistry::Info(const std::string& id) const {
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(&map_mutex_);
    auto it = models_.find(id);
    if (it == models_.end()) {
      return Status::NotFound(StrFormat("model '%s' not found", id.c_str()));
    }
    entry = it->second;
  }
  MutexLock lock(&entry->mutex);
  return entry->InfoLocked();
}

std::vector<ModelEntryInfo> ModelRegistry::List() const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    MutexLock lock(&map_mutex_);
    entries.reserve(models_.size());
    for (const auto& [id, entry] : models_) entries.push_back(entry);
  }
  std::vector<ModelEntryInfo> infos;
  infos.reserve(entries.size());
  for (const auto& entry : entries) {
    MutexLock lock(&entry->mutex);
    infos.push_back(entry->InfoLocked());
  }
  std::sort(infos.begin(), infos.end(),
            [](const ModelEntryInfo& a, const ModelEntryInfo& b) {
              return a.id < b.id;
            });
  return infos;
}

RegistryStats ModelRegistry::stats() const {
  RegistryStats stats;
  stats.loads_ok = loads_ok_.load(std::memory_order_relaxed);
  stats.load_failures = load_failures_.load(std::memory_order_relaxed);
  stats.reloads_ok = reloads_ok_.load(std::memory_order_relaxed);
  stats.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  stats.unloads = unloads_.load(std::memory_order_relaxed);
  stats.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.refused_unknown_model =
      refused_unknown_model_.load(std::memory_order_relaxed);
  stats.refused_not_serving = refused_not_serving_.load(std::memory_order_relaxed);
  {
    MutexLock lock(&retired_mutex_);
    stats.serving = unloaded_serving_;
  }
  for (const ModelEntryInfo& info : List()) {
    AccumulateServingStats(&stats.serving, info.serving);
  }
  return stats;
}

void ModelRegistry::Shutdown() {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    MutexLock lock(&map_mutex_);
    shutdown_ = true;
    entries.reserve(models_.size());
    for (const auto& [id, entry] : models_) entries.push_back(entry);
    models_.clear();
  }
  for (const auto& entry : entries) {
    std::shared_ptr<ServingFrontEnd> front_end;
    {
      MutexLock lock(&entry->mutex);
      entry->state = ModelState::kDraining;
      front_end = std::move(entry->front_end);
    }
    ServingStats drained;
    if (front_end != nullptr) {
      front_end->Shutdown();
      drained = front_end->stats();
      front_end.reset();
    }
    ServingStats retired;
    {
      MutexLock lock(&entry->mutex);
      entry->state = ModelState::kUnloaded;
      retired = entry->retired;
      AccumulateServingStats(&retired, drained);
    }
    MutexLock lock(&retired_mutex_);
    AccumulateServingStats(&unloaded_serving_, retired);
  }
}

}  // namespace treewm::serve
