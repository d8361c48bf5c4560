#include "closed_loop.h"

#include <algorithm>
#include <chrono>

#include "common/rng.h"
#include "serve/wire/sockets.h"
#include "util.h"
#include "wire_io.h"

namespace perfbench {

namespace wire = treewm::serve::wire;

SaturationOutcome RunSaturated(uint16_t port, const std::string& model_id,
                               const treewm::data::Dataset& rows,
                               const treewm::predict::VoteMatrix& expected, size_t window,
                               double duration_s, uint64_t seed) {
  SaturationOutcome outcome;
  auto connected = wire::ConnectTcpLoopback(port, std::chrono::seconds(5));
  if (!connected.ok()) {
    outcome.sent = outcome.failed = 1;
    return outcome;
  }
  const wire::Fd fd = std::move(connected).MoveValue();
  ReplyReader reader(&fd);
  treewm::Rng rng(seed);
  std::vector<size_t> row_of;  // request id - 1 → row
  std::vector<uint8_t> answered;
  std::vector<uint8_t> out;
  const auto send = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      row_of.push_back(static_cast<size_t>(rng.UniformInt(rows.num_rows())));
      answered.push_back(0);
      AppendPredictFrame(row_of.size(), model_id, rows.Row(row_of.back()), &out);
    }
    const bool ok = WriteAll(fd, out).ok();
    out.clear();
    return ok;
  };

  // The window is refilled in steps of an eighth, so a write carries
  // several frames and the window never drains below seven eighths.
  const size_t refill = std::max<size_t>(1, window / 8);
  const auto start = SteadyClock::now();
  const auto end = start + std::chrono::duration_cast<SteadyClock::duration>(
                               std::chrono::duration<double>(duration_s));
  size_t in_flight = 0;
  size_t owed = 0;  // answers received since the last refill
  size_t in_time = 0;  // correct answers received before the deadline
  bool writing = true;
  for (size_t i = 0; i < window && writing; i += refill) {
    writing = send(std::min(refill, window - i));
    in_flight = row_of.size();
  }
  while (in_flight > 0) {
    auto next = reader.Next();
    if (!next.ok() || !next.value().has_value()) break;  // transport error or silence
    const auto now = SteadyClock::now();
    const Reply& reply = *next.value();
    if (reply.request_id == 0 || reply.request_id > row_of.size() ||
        answered[reply.request_id - 1] != 0) {
      break;  // an unknown or repeated id: the stream is corrupt
    }
    answered[reply.request_id - 1] = 1;
    --in_flight;
    if (reply.ok) {
      const auto want = expected.row(row_of[reply.request_id - 1]);
      if (std::equal(want.begin(), want.end(), reply.votes.begin(), reply.votes.end())) {
        ++outcome.ok;
        if (now < end) ++in_time;
      } else {
        ++outcome.wrong_votes;
      }
    } else if (reply.code == treewm::StatusCode::kResourceExhausted) {
      ++outcome.shed;
    } else {
      ++outcome.failed;
    }
    if (writing && now < end && ++owed == refill) {
      writing = send(owed);
      in_flight += owed;
      owed = 0;
    }
  }
  outcome.sent = row_of.size();
  outcome.failed += in_flight;  // never answered
  outcome.rps = static_cast<double>(in_time) / duration_s;
  return outcome;
}

}  // namespace perfbench
