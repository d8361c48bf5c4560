// Open-loop Poisson load generator over the wire.
//
// Each stream is one connection addressing one model at a fixed offered
// rate. Arrival schedules (due time and request row) are precomputed from a
// seed before the clock starts. One pacing thread sends every stream: each
// time it wakes it encodes every request that has fallen due, on every
// stream, and writes each stream's frames with one write. One reader thread
// per stream matches answers to requests by id.
//
// Latency is measured from when a request was due, not from when it was
// written, so pacer stalls count against the requests they delay. A request
// that was refused, failed, or got no answer counts as +inf. The pacer's
// own lateness (write done − due) is reported for every request.

#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "predict/vote_matrix.h"

namespace perfbench {

struct StreamSpec {
  std::string model_id;
  double rate_rps = 0;
  /// Request rows are drawn uniformly from `rows`; `expected` holds the
  /// in-process votes of every row, which each answer must equal.
  const treewm::data::Dataset* rows = nullptr;
  const treewm::predict::VoteMatrix* expected = nullptr;
};

struct StreamOutcome {
  size_t sent = 0;
  size_t ok = 0;           ///< answered with the expected votes
  size_t shed = 0;         ///< refused ResourceExhausted
  size_t failed = 0;       ///< any other error, or no answer
  size_t wrong_votes = 0;  ///< answered, but with other votes (a wrong result)
  std::vector<double> latency_ms;  ///< one per request sent; +inf unless ok
};

struct OpenLoopOutcome {
  std::vector<StreamOutcome> streams;  ///< parallel to the specs
  std::vector<double> lateness_ms;     ///< one per request, every stream
  double duration_s = 0;
};

/// Runs every stream for `duration_s` seconds against the server on `port`.
OpenLoopOutcome RunOpenLoop(uint16_t port, const std::vector<StreamSpec>& streams,
                            double duration_s, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
