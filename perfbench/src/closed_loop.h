// Closed-loop saturation load over the wire.
//
// One thread keeps a fixed window of single-row predict requests in flight
// on one connection to one model, topping it up as answers arrive. The
// model's queue never runs dry and never reaches the shed high-water mark,
// so the answers per second are the model's serving capacity through the
// whole stack: socket read, frame decode, registry, admission, batching,
// predictor, reply encode, socket write. The only other busy thread of the
// process is the caller's, so the server's CPU time per answer is the
// process's CPU time over the phase minus the caller's.

#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "predict/vote_matrix.h"

namespace perfbench {

struct SaturationOutcome {
  size_t sent = 0;
  size_t ok = 0;           ///< answered with the expected votes
  size_t shed = 0;         ///< refused ResourceExhausted
  size_t failed = 0;       ///< any other error, or no answer
  size_t wrong_votes = 0;  ///< answered, but with other votes (a wrong result)
  double rps = 0;          ///< correct answers per second until the deadline
};

/// Sends requests for `duration_s` seconds with `window` in flight to
/// `model_id` on `port`. Request rows are drawn from `rows` with `seed`;
/// every answer must equal that row of `expected`. After the deadline no
/// request is sent, and the ones in flight are drained.
SaturationOutcome RunSaturated(uint16_t port, const std::string& model_id,
                               const treewm::data::Dataset& rows,
                               const treewm::predict::VoteMatrix& expected, size_t window,
                               double duration_s, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
