// Multi-model registry: per-model bulkheads over shared immutable images.
//
// The registry maps model ids to entries, each owning one immutable
// ensemble image (shared_ptr<const FlatEnsemble>) and one ISOLATED
// ServingFrontEnd: its own AdmissionQueue, batcher, and dispatcher. Nothing
// is pooled across models, so one model's overload sheds only that model's
// traffic and one model's wedged reload cannot touch another's latency
// (tests/test_registry.cc proves both).
//
// Lifecycle state machine, per model:
//
//       Load ──► LOADING ──ok──► SERVING ◄──┐
//                   │                │      │ Reload (atomic swap)
//                 fail               │      │
//                   ▼                ▼      │
//                FAILED          DRAINING ──┘ (old image drains)
//                   │                │
//                   └──── Unload ────┴────► UNLOADED (entry removed)
//
// Load/Reload/Unload are concurrent-safe. Reload builds a complete new
// front-end on the new image OFF the entry lock, then publishes it by
// swapping the entry's shared_ptr; because submits push into the current
// front-end under the same short entry lock, every request lands in exactly
// one front-end — requests admitted before the swap finish on the old
// image, admissions after it see the new one, and draining the old
// front-end completes every accepted request. Zero requests are dropped or
// spuriously refused across a swap, and the accounting identity
//
//   registry submitted == Σ front-end submitted (live + retired + unloaded)
//                         + refused_unknown_model + refused_not_serving
//
// closes exactly (each front-end's own identity — submitted == completed +
// rejected + expired once drained — closes beneath it).
//
// Repeated reload failures trip a per-model circuit breaker: after
// `reload_breaker_threshold` consecutive failures, further reloads refuse
// with FailedPrecondition until the model is unloaded, while the old image
// keeps serving — a crash-looping model file cannot take down a healthy
// model. Fault sites: "serve.registry.load.fail" (front-end construction),
// "serve.registry.swap.stall" (between build and publication, where a slow
// reload must not block traffic), and "serve.registry.snapshot.corrupt"
// (io/ensemble_snapshot cold-start reads) — see src/serve/README.md.
//
// Rejected shapes (and why): one global registry lock serializing submits
// of every model (cross-model contention is exactly what bulkheads exist
// to kill); a copy-on-write model map republished per mutation (submits
// get lock-free lookup but every Load/Unload copies the map, and per-entry
// state still needs a lock for the swap — the map mutex is touched only to
// find the entry, never during prediction); and reloading by mutating the
// front-end's image in place (every traversal would pay an acquire on the
// hot path; swapping the whole front-end keeps images immutable and makes
// drain the only synchronization).

#ifndef TREEWM_SERVE_REGISTRY_MODEL_REGISTRY_H_
#define TREEWM_SERVE_REGISTRY_MODEL_REGISTRY_H_

#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "predict/flat_ensemble.h"
#include "serve/request.h"
#include "serve/serving_front_end.h"

namespace treewm::serve {

/// Wire-stable lifecycle byte (kModelsResponse carries it verbatim).
enum class ModelState : uint8_t {
  kLoading = 1,
  kServing = 2,
  kDraining = 3,
  kUnloaded = 4,
  kFailed = 5,
};

const char* ModelStateName(ModelState state);

struct ModelRegistryOptions {
  /// Per-model bulkhead template: every model's front-end is created from
  /// this. The admission policy must be kReject — submits push under the
  /// entry lock, so a blocking push would let one stalled client defer
  /// another model's reload.
  ServingOptions serving;
  /// Registry capacity; Load refuses with ResourceExhausted beyond it.
  size_t max_models = 64;
  /// Consecutive reload failures that open the per-model circuit breaker.
  size_t reload_breaker_threshold = 3;
};

/// Point-in-time view of one model (Info/List and the wire models frame).
struct ModelEntryInfo {
  std::string id;
  ModelState state = ModelState::kLoading;
  /// CRC-32 identity of the served image (io::EnsembleChecksum).
  uint32_t checksum = 0;
  uint64_t reloads = 0;          ///< successful atomic swaps
  uint64_t reload_failures = 0;  ///< failed reload attempts
  bool breaker_open = false;
  /// Why the model is FAILED (OK otherwise).
  Status last_error = Status::OK();
  /// Live front-end counters plus everything retired by swaps.
  ServingStats serving;
};

struct RegistryStats {
  uint64_t loads_ok = 0;
  uint64_t load_failures = 0;
  uint64_t reloads_ok = 0;
  uint64_t reload_failures = 0;
  uint64_t unloads = 0;
  uint64_t breaker_trips = 0;
  uint64_t submitted = 0;              ///< registry-level Submit calls
  uint64_t refused_unknown_model = 0;  ///< NotFound (no such entry)
  uint64_t refused_not_serving = 0;    ///< FailedPrecondition (wrong state)
  /// Aggregate over every front-end the registry ever ran (live entries,
  /// images retired by reload swaps, and unloaded models).
  ServingStats serving;
};

class ModelRegistry {
 public:
  /// Validates options (admission policy must be kReject; see above).
  [[nodiscard]] static Result<std::unique_ptr<ModelRegistry>> Create(
      ModelRegistryOptions options);

  /// Shuts down (drains every model) if the caller has not already.
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Loads `image` under `id`. AlreadyExists if the id is taken (including
  /// by a FAILED entry — Unload it first), ResourceExhausted at capacity.
  /// A build failure leaves the entry FAILED with the typed cause, visible
  /// to Info/List, never half-serving.
  [[nodiscard]] Status Load(const std::string& id,
                            std::shared_ptr<const predict::FlatEnsemble> image);

  /// Load from a binary snapshot file (io::LoadEnsembleSnapshot). Decode
  /// failures (IoError/ParseError) fail the load closed: the entry is
  /// FAILED, nothing serves.
  [[nodiscard]] Status LoadFromSnapshot(const std::string& id,
                                        const std::string& path);

  /// Atomically replaces a SERVING model's image (see file comment for the
  /// swap protocol). Typed refusals: NotFound (no entry), FailedPrecondition
  /// (not serving / reload already running / breaker open). A build failure
  /// keeps the old image serving and counts toward the breaker.
  [[nodiscard]] Status Reload(const std::string& id,
                              std::shared_ptr<const predict::FlatEnsemble> image);

  /// Reload from a binary snapshot file. A corrupt file is a reload
  /// failure like any other: the old image keeps serving and the breaker
  /// counts it.
  [[nodiscard]] Status ReloadFromSnapshot(const std::string& id,
                                          const std::string& path);

  /// Drains and removes a model. Every request admitted before Unload is
  /// answered on the old image; submits racing the drain get a typed
  /// FailedPrecondition. NotFound if absent, FailedPrecondition while a
  /// reload is in flight.
  [[nodiscard]] Status Unload(const std::string& id);

  /// Routes one request to `id`'s bulkhead. `done` is invoked exactly once:
  /// a PredictResult, the model's front-end refusal, or an immediate
  /// NotFound / FailedPrecondition when the model cannot accept work.
  /// Immediate refusals run on the calling thread with no registry lock
  /// held. Thread-safe against concurrent Load/Reload/Unload.
  void Submit(const std::string& id, std::span<const float> x,
              const RequestOptions& options, CompletionFn done);

  /// Future adapter over Submit.
  std::future<Result<PredictResult>> SubmitPredict(
      const std::string& id, std::span<const float> x,
      const RequestOptions& options = {});

  /// Blocking convenience wrapper over SubmitPredict.
  [[nodiscard]] Result<PredictResult> Predict(const std::string& id,
                                              std::span<const float> x,
                                              const RequestOptions& options = {});

  /// Manual-mode pump of one model's front-end (start_dispatcher = false).
  [[nodiscard]] Result<size_t> Pump(const std::string& id,
                                    bool force_flush = false);

  [[nodiscard]] Result<ModelEntryInfo> Info(const std::string& id) const;

  /// Every entry, sorted by id (deterministic output for tools/tests).
  std::vector<ModelEntryInfo> List() const;

  RegistryStats stats() const;

  /// Drains every model and refuses further loads. Idempotent.
  void Shutdown();

 private:
  struct Entry;

  explicit ModelRegistry(ModelRegistryOptions options);

  /// Creates the kLoading entry (all Load preconditions checked here).
  Result<std::shared_ptr<Entry>> BeginLoad(const std::string& id)
      TREEWM_EXCLUDES(map_mutex_);
  /// Publishes a built front-end (or records the typed failure) for a
  /// fresh LOADING entry.
  Status FinishLoad(const std::shared_ptr<Entry>& entry,
                    Result<std::unique_ptr<ServingFrontEnd>> built,
                    uint32_t checksum);
  /// Claims the entry for an exclusive reload (typed refusals otherwise).
  Result<std::shared_ptr<Entry>> BeginReload(const std::string& id)
      TREEWM_EXCLUDES(map_mutex_);
  /// Swap-or-fail tail of a reload; hosts the swap.stall fault site.
  Status FinishReload(const std::shared_ptr<Entry>& entry,
                      Result<std::unique_ptr<ServingFrontEnd>> built,
                      uint32_t checksum);
  /// Front-end construction; hosts the load.fail fault site.
  Result<std::unique_ptr<ServingFrontEnd>> BuildFrontEnd(
      std::shared_ptr<const predict::FlatEnsemble> image) const;

  ModelRegistryOptions options_;

  /// Guards only the id -> entry map. Never held while a front-end is
  /// built, drained, or submitted to, and never nested with entry locks.
  mutable Mutex map_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> models_
      TREEWM_GUARDED_BY(map_mutex_);
  bool shutdown_ TREEWM_GUARDED_BY(map_mutex_) = false;

  /// Stats retired by Unload/Shutdown (entries gone from the map).
  mutable Mutex retired_mutex_;
  ServingStats unloaded_serving_ TREEWM_GUARDED_BY(retired_mutex_);

  std::atomic<uint64_t> loads_ok_{0};
  std::atomic<uint64_t> load_failures_{0};
  std::atomic<uint64_t> reloads_ok_{0};
  std::atomic<uint64_t> reload_failures_{0};
  std::atomic<uint64_t> unloads_{0};
  std::atomic<uint64_t> breaker_trips_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> refused_unknown_model_{0};
  std::atomic<uint64_t> refused_not_serving_{0};
};

}  // namespace treewm::serve

#endif  // TREEWM_SERVE_REGISTRY_MODEL_REGISTRY_H_
