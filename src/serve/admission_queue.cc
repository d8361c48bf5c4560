#include "serve/admission_queue.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace treewm::serve {

AdmissionQueue::AdmissionQueue(AdmissionQueueOptions options)
    : options_([&] {
        AdmissionQueueOptions o = options;
        o.capacity = std::max<size_t>(1, o.capacity);
        return o;
      }()),
      clock_(options.clock != nullptr ? options.clock : Clock::System()) {}

Status AdmissionQueue::Push(QueuedRequest&& item) {
  if (TREEWM_FAULT_FIRED("serve.admission.full")) {
    MutexLock lock(&mutex_);
    ++stats_.rejected_full;
    return Status::ResourceExhausted("admission queue full (injected)");
  }
  {
    MutexLock lock(&mutex_);
    if (shutting_down_) {
      ++stats_.rejected_shutdown;
      return Status::FailedPrecondition("serving front-end is shutting down");
    }
    // Shedding outranks the overflow policy: past the high-water mark even a
    // blocking producer is turned away immediately — waiting would only add
    // latency to a request that is already late.
    if (options_.shed_high_water > 0 && items_.size() >= options_.shed_high_water) {
      ++stats_.rejected_shed;
      return Status::ResourceExhausted(
          StrFormat("load shed: queue depth %zu at high-water %zu", items_.size(),
                    options_.shed_high_water));
    }
    if (items_.size() >= options_.capacity) {
      if (options_.policy == OverflowPolicy::kReject) {
        ++stats_.rejected_full;
        return Status::ResourceExhausted(
            StrFormat("admission queue full (capacity %zu)", options_.capacity));
      }
      // kBlockWithDeadline: wait for a slot until the request's own deadline.
      while (items_.size() >= options_.capacity && !shutting_down_) {
        if (item.deadline == kNoDeadline) {
          space_ready_.Wait(lock);
          continue;
        }
        const auto now = clock_->Now();
        if (now >= item.deadline) {
          ++stats_.expired_blocking;
          return Status::DeadlineExceeded("admission queue full past request deadline");
        }
        // discard ok: timeout vs notify is re-derived from the loop condition
        (void)space_ready_.WaitFor(lock, item.deadline - now);
      }
      if (shutting_down_) {
        ++stats_.rejected_shutdown;
        return Status::FailedPrecondition("serving front-end is shutting down");
      }
    }
    items_.push_back(std::move(item));
    ++stats_.pushed;
    stats_.high_water = std::max<uint64_t>(stats_.high_water, items_.size());
  }
  item_ready_.NotifyOne();
  return Status::OK();
}

bool AdmissionQueue::PopUntil(QueuedRequest* out, std::chrono::nanoseconds until) {
  {
    MutexLock lock(&mutex_);
    while (items_.empty() && !shutting_down_) {
      if (until == kNoDeadline) {
        item_ready_.Wait(lock);
        continue;
      }
      const auto now = clock_->Now();
      if (now >= until) return false;
      // discard ok: timeout vs notify is re-derived from the loop condition
      (void)item_ready_.WaitFor(lock, until - now);
    }
    if (items_.empty()) return false;  // shut down and drained
    *out = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
  }
  space_ready_.NotifyOne();
  return true;
}

size_t AdmissionQueue::TryPopUpTo(size_t limit, std::vector<QueuedRequest>* out) {
  size_t popped = 0;
  {
    MutexLock lock(&mutex_);
    for (; popped < limit && !items_.empty(); ++popped) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    stats_.popped += popped;
  }
  // One wake per freed slot: each blocked producer needs exactly one.
  for (size_t i = 0; i < popped; ++i) space_ready_.NotifyOne();
  return popped;
}

void AdmissionQueue::Shutdown() {
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
  }
  item_ready_.NotifyAll();
  space_ready_.NotifyAll();
}

bool AdmissionQueue::IsShutdown() const {
  MutexLock lock(&mutex_);
  return shutting_down_;
}

size_t AdmissionQueue::depth() const {
  MutexLock lock(&mutex_);
  return items_.size();
}

AdmissionQueueStats AdmissionQueue::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

}  // namespace treewm::serve
