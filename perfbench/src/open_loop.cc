#include "open_loop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/rng.h"
#include "serve/wire/sockets.h"
#include "util.h"
#include "wire_io.h"

namespace perfbench {

namespace wire = treewm::serve::wire;

namespace {

struct Schedule {
  std::vector<int64_t> due_ns;  ///< offset from the run's start
  std::vector<size_t> row;
};

struct Event {
  int64_t due_ns;
  uint32_t stream;
  uint32_t index;
};

/// Reads one stream's answers until every request is answered or the
/// deadline passes; fills `out` (latency from each request's due time).
void ReadStream(const wire::Fd& fd, const StreamSpec& spec, const Schedule& schedule,
                SteadyClock::time_point start, SteadyClock::time_point deadline,
                StreamOutcome* out) {
  ReplyReader reader(&fd);
  std::vector<uint8_t> seen(out->sent, 0);
  size_t answered = 0;
  while (answered < out->sent && SteadyClock::now() < deadline) {
    auto next = reader.Next();
    if (!next.ok()) break;
    if (!next.value().has_value()) continue;
    const auto now = SteadyClock::now();
    const Reply& reply = *next.value();
    if (reply.request_id == 0 || reply.request_id > out->sent) break;
    const size_t index = reply.request_id - 1;
    if (seen[index] != 0) break;  // answered twice: the stream is corrupt
    seen[index] = 1;
    ++answered;
    if (reply.ok) {
      const auto expected = spec.expected->row(schedule.row[index]);
      if (!std::equal(expected.begin(), expected.end(), reply.votes.begin(),
                      reply.votes.end())) {
        ++out->wrong_votes;
        continue;
      }
      ++out->ok;
      const auto due = start + std::chrono::nanoseconds(schedule.due_ns[index]);
      out->latency_ms[index] =
          std::chrono::duration<double, std::milli>(now - due).count();
    } else if (reply.code == treewm::StatusCode::kResourceExhausted) {
      ++out->shed;
    } else {
      ++out->failed;
    }
  }
  out->failed += out->sent - answered;
}

}  // namespace

OpenLoopOutcome RunOpenLoop(uint16_t port, const std::vector<StreamSpec>& streams,
                            double duration_s, uint64_t seed) {
  OpenLoopOutcome outcome;
  outcome.duration_s = duration_s;
  outcome.streams.resize(streams.size());

  // Schedules first, from the seed alone: exponential gaps at each rate.
  std::vector<Schedule> schedules(streams.size());
  std::vector<Event> events;
  treewm::Rng rng(seed);
  for (size_t s = 0; s < streams.size(); ++s) {
    treewm::Rng stream_rng = rng.Fork();
    Schedule& schedule = schedules[s];
    double t = 0;
    for (;;) {
      t += -std::log(1.0 - stream_rng.UniformReal()) / streams[s].rate_rps;
      if (t >= duration_s) break;
      schedule.due_ns.push_back(static_cast<int64_t>(t * 1e9));
      schedule.row.push_back(
          static_cast<size_t>(stream_rng.UniformInt(streams[s].rows->num_rows())));
      events.push_back({schedule.due_ns.back(), static_cast<uint32_t>(s),
                        static_cast<uint32_t>(schedule.due_ns.size() - 1)});
    }
    outcome.streams[s].sent = schedule.due_ns.size();
    outcome.streams[s].latency_ms.assign(schedule.due_ns.size(), kInf);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.due_ns < b.due_ns; });

  std::vector<wire::Fd> fds(streams.size());
  for (size_t s = 0; s < streams.size(); ++s) {
    auto fd = wire::ConnectTcpLoopback(port, std::chrono::milliseconds(100));
    if (fd.ok()) fds[s] = std::move(fd).MoveValue();
  }

  const auto start = SteadyClock::now() + std::chrono::milliseconds(10);
  const auto deadline = start + std::chrono::duration_cast<SteadyClock::duration>(
                                    std::chrono::duration<double>(duration_s + 5.0));
  std::vector<std::thread> readers;
  for (size_t s = 0; s < streams.size(); ++s) {
    if (!fds[s].valid()) {
      outcome.streams[s].failed = outcome.streams[s].sent;
      continue;
    }
    readers.emplace_back(ReadStream, std::cref(fds[s]), std::cref(streams[s]),
                         std::cref(schedules[s]), start, deadline, &outcome.streams[s]);
  }

  // The pacer. A 1 µs timer slack keeps sleep_until close to the due time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  outcome.lateness_ms.assign(events.size(), kInf);
  std::vector<std::vector<uint8_t>> out_bytes(streams.size());
  std::vector<uint8_t> stream_ok(streams.size(), 1);
  for (size_t s = 0; s < streams.size(); ++s) stream_ok[s] = fds[s].valid() ? 1 : 0;
  size_t next = 0;
  while (next < events.size()) {
    const auto now = SteadyClock::now();
    const auto due = start + std::chrono::nanoseconds(events[next].due_ns);
    if (due > now) {
      std::this_thread::sleep_until(due);
      continue;
    }
    const size_t first = next;
    for (; next < events.size() &&
           start + std::chrono::nanoseconds(events[next].due_ns) <= now;
         ++next) {
      const Event& e = events[next];
      if (stream_ok[e.stream] == 0) continue;
      const StreamSpec& spec = streams[e.stream];
      AppendPredictFrame(e.index + 1, spec.model_id,
                         spec.rows->Row(schedules[e.stream].row[e.index]),
                         &out_bytes[e.stream]);
    }
    for (size_t s = 0; s < streams.size(); ++s) {
      if (out_bytes[s].empty()) continue;
      // A failed write leaves the stream's requests unanswered; its reader
      // counts them failed.
      if (!WriteAll(fds[s], out_bytes[s]).ok()) stream_ok[s] = 0;
      out_bytes[s].clear();
    }
    const auto written = SteadyClock::now();
    for (size_t i = first; i < next; ++i) {
      const auto due_i = start + std::chrono::nanoseconds(events[i].due_ns);
      outcome.lateness_ms[i] =
          std::chrono::duration<double, std::milli>(written - due_i).count();
    }
  }
  for (std::thread& reader : readers) reader.join();
  return outcome;
}

}  // namespace perfbench
