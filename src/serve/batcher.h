// Deadline/size-triggered request coalescing.
//
// Single-instance requests amortize the per-batch costs (FloatKey row
// transform, tree-arena streaming, pool fan-out) only when packed into row
// blocks. The batcher holds admitted requests until either max_batch_rows
// are pending or the OLDEST pending request has waited max_batch_delay
// since admission — whichever comes first — bounding the latency a request
// can pay waiting for co-travelers.
//
// The batcher is passive and single-threaded by design: the dispatcher (or
// a test) calls Add/ShouldFlush/TakeBatch and owns all timing decisions
// through the injected Clock, so every deadline path is unit-testable with
// a FakeClock and zero sleeps. Batch composition can never change results:
// BatchPredictor's per-row outputs are bit-exact and row-independent, so
// packing is purely a throughput/latency dial.
//
// Concurrency: the batcher carries no lock of its own — it is an
// EXTERNALLY guarded capability. ServingFrontEnd declares its instance
// `Batcher batcher_ TREEWM_GUARDED_BY(dispatch_mutex_)`, so clang's
// thread-safety analysis proves every access (dispatcher loop, manual
// Pump, shutdown drain) happens under that one mutex. A standalone Batcher
// (unit tests) needs no lock because there is exactly one driver.

#ifndef TREEWM_SERVE_BATCHER_H_
#define TREEWM_SERVE_BATCHER_H_

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "serve/request.h"

namespace treewm::serve {

struct BatcherOptions {
  /// Flush as soon as this many requests are pending (>= 1).
  size_t max_batch_rows = 64;
  /// Flush once the oldest pending request has waited this long since its
  /// admission timestamp. Zero = flush immediately whenever non-empty.
  std::chrono::nanoseconds max_batch_delay = std::chrono::microseconds(500);
};

/// FIFO request coalescer. Not thread-safe: owned and driven by exactly one
/// dispatcher.
class Batcher {
 public:
  explicit Batcher(BatcherOptions options);

  /// Queues one admitted request.
  void Add(QueuedRequest request);

  size_t pending() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }

  /// True when a batch is due at `now`: max_batch_rows pending, or the
  /// oldest request's admission is older than the effective delay.
  bool ShouldFlush(std::chrono::nanoseconds now) const;

  /// Absolute time at which the pending batch becomes due even without new
  /// arrivals (kNoDeadline when empty) — what the dispatcher sleeps until.
  std::chrono::nanoseconds NextFlushAt() const;

  /// Removes and returns up to max_batch_rows requests in admission order.
  std::vector<QueuedRequest> TakeBatch();

  /// Graceful-degradation dial: overrides max_batch_delay (typically with 0
  /// while the admission queue is over its shed threshold, so a partial
  /// batch leaves without waiting for the clock). nullopt restores the
  /// configured delay.
  void set_delay_override(std::optional<std::chrono::nanoseconds> delay) {
    delay_override_ = delay;
  }

  /// The delay currently in force (override or configured).
  std::chrono::nanoseconds effective_delay() const {
    return delay_override_.value_or(options_.max_batch_delay);
  }

  const BatcherOptions& options() const { return options_; }

 private:
  BatcherOptions options_;
  std::optional<std::chrono::nanoseconds> delay_override_;
  std::deque<QueuedRequest> pending_;
};

}  // namespace treewm::serve

#endif  // TREEWM_SERVE_BATCHER_H_
