// Request/response shapes shared by the serving front-end components.
//
// A request is ONE instance (the single-query shape millions of clients
// send); the front-end coalesces admitted requests into row blocks for
// BatchPredictor. Each request carries its absolute deadline and the
// completion callback its result is delivered through — whoever drops a
// request MUST invoke the callback with a typed Status (fail closed, never
// silently).

#ifndef TREEWM_SERVE_REQUEST_H_
#define TREEWM_SERVE_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "common/status.h"

namespace treewm::serve {

/// Sentinel for "no deadline".
inline constexpr std::chrono::nanoseconds kNoDeadline =
    std::chrono::nanoseconds::max();

/// Per-request knobs supplied by the client.
struct RequestOptions {
  /// Relative deadline; the front-end checks it at admission, dispatch and
  /// completion. Zero (default) = no deadline.
  std::chrono::nanoseconds timeout{0};
};

/// The served answer for one instance: the majority-vote label plus the
/// per-tree vote sequence (the `predict.all` shape watermark verification
/// scores on). Values are bit-identical regardless of how the request was
/// batched, which threads ran it, or which faults fired around it.
struct PredictResult {
  int label = 0;                ///< majority vote (±1, ties -> +1)
  std::vector<int8_t> votes;    ///< per-tree ±1 votes
};

/// Completion callback of one request: invoked exactly once with the result
/// or a typed error — on the thread driving dispatch (the dispatcher, or a
/// manual Pump/Shutdown), or on the submitting thread for an immediate
/// refusal. It runs on a serving thread: keep it short, never block.
using CompletionFn = std::function<void(Result<PredictResult>)>;

/// The future adapter: a callback that resolves `*future`. The
/// future-returning SubmitPredict/Predict APIs are a few lines over this.
inline CompletionFn FutureCompletion(std::future<Result<PredictResult>>* future) {
  auto promise = std::make_shared<std::promise<Result<PredictResult>>>();
  *future = promise->get_future();
  return [promise](Result<PredictResult> result) {
    promise->set_value(std::move(result));
  };
}

/// One admitted in-flight request (internal to the serving layer).
struct QueuedRequest {
  uint64_t id = 0;
  std::vector<float> features;
  /// Absolute deadline on the front-end's clock (kNoDeadline = none).
  std::chrono::nanoseconds deadline = kNoDeadline;
  /// Admission timestamp; the batcher's flush delay counts from here.
  std::chrono::nanoseconds admitted_at{0};
  /// Completion channel; invoked exactly once with the result or a typed
  /// error.
  CompletionFn done;
};

}  // namespace treewm::serve

#endif  // TREEWM_SERVE_REQUEST_H_
