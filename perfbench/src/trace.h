// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call into a library layer in a ScopedSpan. A
// span records its name, start, end, the span that was open on the same
// thread when it began (its parent), and a tag (phase or request id). Spans
// stay in memory and are written out once, when the run ends. A layer's
// self time is its span's duration minus the time its direct children
// cover (children on one thread nest inside the parent, so their durations
// add up without overlap).
//
// With tracing off, ScopedSpan records nothing and costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< steady clock, relative to the tracer's origin
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
  uint64_t tag = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index (-1 when off).
  int64_t Begin(const std::string& name, uint64_t tag);
  void End(int64_t index);

  /// Durations in ms of every closed span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Self times in ms of every closed span called `name`.
  std::vector<double> SelfMs(const std::string& name) const;

  size_t num_spans() const;

  /// Writes every span as a JSON array; false on an I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  Tracer();

  bool enabled_ = false;
  int64_t origin_ns_ = 0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, uint64_t tag = 0)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, tag) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
