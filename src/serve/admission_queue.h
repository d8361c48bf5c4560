// Bounded MPMC admission queue with explicit backpressure policy.
//
// The first robustness boundary of the serving front-end: every arriving
// request either gets a queue slot or a typed Status saying why not —
// ResourceExhausted when the queue is full (kReject) or past the shed
// high-water mark, DeadlineExceeded when a kBlockWithDeadline push timed
// out, FailedPrecondition after shutdown. Admission never blocks
// unboundedly and never drops an accepted item: Shutdown() closes admission
// but consumers drain every queued request (drain-on-shutdown), so each one
// is still answered.
//
// Load shedding starts BEFORE the queue is full: with shed_high_water set,
// pushes are rejected once depth reaches the mark, keeping queueing delay
// bounded under sustained overload instead of serving every request late
// (the classic full-queue collapse).
//
// Blocking operations (kBlockWithDeadline pushes, PopUntil waits) measure time
// on the injected Clock but park on real condition variables — use them
// with the SystemClock. Deadline arithmetic alone (expiry checks) is what
// FakeClock-driven unit tests exercise via TryPopUpTo/non-blocking paths.

#ifndef TREEWM_SERVE_ADMISSION_QUEUE_H_
#define TREEWM_SERVE_ADMISSION_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/annotations.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "serve/request.h"

namespace treewm::serve {

/// What Push does when the queue is at capacity.
enum class OverflowPolicy {
  /// Fail immediately with ResourceExhausted.
  kReject,
  /// Wait for space until the request's deadline, then DeadlineExceeded
  /// (requests without a deadline wait indefinitely).
  kBlockWithDeadline,
};

struct AdmissionQueueOptions {
  /// Maximum queued (not yet popped) requests; >= 1.
  size_t capacity = 1024;
  OverflowPolicy policy = OverflowPolicy::kReject;
  /// Queue depth at which load shedding begins (0 = disabled). Sheds are
  /// ResourceExhausted like full-queue rejects but counted separately.
  size_t shed_high_water = 0;
  /// Time source for deadline arithmetic (nullptr = system clock).
  Clock* clock = nullptr;
};

/// Counters snapshot; all monotonically increasing except high_water.
struct AdmissionQueueStats {
  uint64_t pushed = 0;             ///< accepted into the queue
  uint64_t rejected_full = 0;      ///< kReject policy, queue at capacity
  uint64_t rejected_shed = 0;      ///< over shed_high_water
  uint64_t rejected_shutdown = 0;  ///< push after Shutdown()
  uint64_t expired_blocking = 0;   ///< kBlockWithDeadline push timed out
  uint64_t popped = 0;
  uint64_t high_water = 0;         ///< max depth ever observed
};

/// Bounded FIFO of admitted requests; any number of producers/consumers.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionQueueOptions options);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits `item` under the configured backpressure policy. The item's own
  /// deadline bounds a kBlockWithDeadline wait. On a non-OK return the item
  /// was NOT admitted (nor moved from): the caller still owns its completion.
  /// Fault site "serve.admission.full": a fired hit behaves as an
  /// instantaneous full queue regardless of actual depth.
  [[nodiscard]] Status Push(QueuedRequest&& item) TREEWM_EXCLUDES(mutex_);

  /// Pops the oldest request, blocking until one is available, the queue is
  /// shut down AND drained, or the clock passes `until` (kNoDeadline = no
  /// time limit). A false return means timeout OR shutdown-and-drained;
  /// check IsShutdown()/depth() to distinguish.
  bool PopUntil(QueuedRequest* out, std::chrono::nanoseconds until)
      TREEWM_EXCLUDES(mutex_);

  /// Non-blocking batch pop: appends up to `limit` of the oldest requests to
  /// *out in FIFO order under one lock, and wakes one blocked producer per
  /// slot it frees. Returns how many it moved (0 when empty).
  size_t TryPopUpTo(size_t limit, std::vector<QueuedRequest>* out)
      TREEWM_EXCLUDES(mutex_);

  /// Closes admission. Queued requests remain poppable; once empty, PopUntil
  /// returns false. Idempotent.
  void Shutdown() TREEWM_EXCLUDES(mutex_);

  bool IsShutdown() const TREEWM_EXCLUDES(mutex_);

  /// Current queue depth.
  size_t depth() const TREEWM_EXCLUDES(mutex_);

  AdmissionQueueStats stats() const TREEWM_EXCLUDES(mutex_);

 private:
  const AdmissionQueueOptions options_;
  Clock* const clock_;

  mutable Mutex mutex_;
  CondVar item_ready_;
  CondVar space_ready_;
  std::deque<QueuedRequest> items_ TREEWM_GUARDED_BY(mutex_);
  bool shutting_down_ TREEWM_GUARDED_BY(mutex_) = false;
  AdmissionQueueStats stats_ TREEWM_GUARDED_BY(mutex_);
};

}  // namespace treewm::serve

#endif  // TREEWM_SERVE_ADMISSION_QUEUE_H_
