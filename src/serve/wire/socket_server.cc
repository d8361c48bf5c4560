#include "serve/wire/socket_server.h"

#include <poll.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "serve/registry/model_registry.h"

namespace treewm::serve::wire {
namespace {

/// Cap on accepts per poll round so an accept storm cannot starve
/// established connections.
constexpr int kMaxAcceptsPerRound = 32;

int ToPollTimeoutMs(std::chrono::nanoseconds wait) {
  if (wait.count() <= 0) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(wait);
  // Round up so a deadline 0.4ms away does not busy-spin at timeout 0.
  const int64_t rounded = ms.count() + (ms >= wait ? 0 : 1);
  return static_cast<int>(std::min<int64_t>(rounded, 60'000));
}

}  // namespace

/// The completion handoff from the models' dispatcher threads to the poll
/// loop. Every in-flight completion callback holds it by shared_ptr, so it
/// outlives the server: once Close() has run (Shutdown), a late completion
/// finds `closed` and does nothing — it was already counted dropped.
struct SocketServer::Outbox {
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    uint8_t version = kWireVersion;  ///< answer stamped like the request
    Result<PredictResult> result;
  };

  explicit Outbox(Fd wake) : wake_write(std::move(wake)) {}

  /// Counts a request in before Submit (a refusal completes it inline).
  void Begin() TREEWM_EXCLUDES(mutex) {
    MutexLock lock(&mutex);
    ++in_flight;
  }

  /// Completion-callback body. Wakes the loop only on the empty → non-empty
  /// edge (about once per batch). The pipe write stays under the lock: an
  /// open outbox guarantees the loop's pipe is still open.
  void Complete(Completion completion) TREEWM_EXCLUDES(mutex) {
    MutexLock lock(&mutex);
    if (closed) return;
    --in_flight;
    const bool wake = done.empty();
    done.push_back(std::move(completion));
    if (wake) SignalWakePipe(wake_write);
  }

  /// Everything completed so far. The loop drains the wake pipe BEFORE
  /// calling this, so a completion that lands after the swap re-arms it.
  std::deque<Completion> Take() TREEWM_EXCLUDES(mutex) {
    MutexLock lock(&mutex);
    return std::exchange(done, {});
  }

  /// Closes the outbox; returns the answers it will never deliver (queued
  /// but untaken, plus still in flight). Later completions are no-ops.
  uint64_t Close() TREEWM_EXCLUDES(mutex) {
    MutexLock lock(&mutex);
    closed = true;
    const uint64_t undeliverable = done.size() + in_flight;
    done.clear();
    return undeliverable;
  }

  const Fd wake_write;
  Mutex mutex;
  std::deque<Completion> done TREEWM_GUARDED_BY(mutex);
  uint64_t in_flight TREEWM_GUARDED_BY(mutex) = 0;
  bool closed TREEWM_GUARDED_BY(mutex) = false;
};

Result<std::unique_ptr<SocketServer>> SocketServer::Create(
    ModelRegistry* registry, SocketServerOptions options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("socket server needs a model registry");
  }
  if (options.default_model.empty()) {
    return Status::InvalidArgument(
        "socket server needs a default model for v1 clients");
  }
  if (options.default_model.size() > kMaxModelIdBytes) {
    return Status::InvalidArgument("default model id is too long for the wire");
  }
  if (options.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (options.max_in_flight_per_connection == 0) {
    return Status::InvalidArgument("max_in_flight_per_connection must be >= 1");
  }
  if (options.max_body_bytes < kHeaderBytes) {
    return Status::InvalidArgument("max_body_bytes is too small for any frame");
  }
  if (options.clock == nullptr) options.clock = Clock::System();
  TREEWM_ASSIGN_OR_RETURN(Fd listener,
                          ListenTcpLoopback(options.port, options.backlog));
  TREEWM_ASSIGN_OR_RETURN(const uint16_t port, LocalPort(listener));
  TREEWM_ASSIGN_OR_RETURN(auto pipe_ends, MakeWakePipe());
  return std::unique_ptr<SocketServer>(new SocketServer(
      registry, std::move(options), std::move(listener),
      std::move(pipe_ends.first), std::move(pipe_ends.second), port));
}

SocketServer::SocketServer(ModelRegistry* registry, SocketServerOptions options,
                           Fd listener, Fd wake_read, Fd wake_write,
                           uint16_t port)
    : registry_(registry),
      options_(std::move(options)),
      clock_(options_.clock),
      port_(port),
      listener_(std::move(listener)),
      wake_read_(std::move(wake_read)),
      outbox_(std::make_shared<Outbox>(std::move(wake_write))) {
  loop_pool_ = std::make_unique<ThreadPool>(1);
  Status loop_started = loop_pool_->Submit([this] { EventLoop(); });
  // A fresh 1-thread pool only rejects under an injected thread_pool fault;
  // fall back to immediate-drain mode rather than serving half a server.
  if (!loop_started.ok()) {
    LogWarning("wire: server thread submit rejected, wire layer disabled: " +
               loop_started.ToString());
    drain_requested_.store(true, std::memory_order_release);
    listener_.Close();
  }
}

SocketServer::~SocketServer() { Shutdown(); }

WireStats SocketServer::stats() const {
  WireStats s;
  s.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  s.connections_shed = connections_shed_.load(std::memory_order_relaxed);
  s.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  s.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.closed_mid_frame = closed_mid_frame_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.transport_errors = transport_errors_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.pings = pings_.load(std::memory_order_relaxed);
  s.requests_received = requests_received_.load(std::memory_order_relaxed);
  s.models_requests = models_requests_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.refusals_sent = refusals_sent_.load(std::memory_order_relaxed);
  s.responses_dropped = responses_dropped_.load(std::memory_order_relaxed);
  s.active_connections = active_connections_.load(std::memory_order_relaxed);
  return s;
}

void SocketServer::SendErrorFrame(Connection* conn, uint64_t request_id,
                                  const Status& status, uint8_t version) {
  ErrorMsg msg;
  msg.request_id = request_id;
  msg.code = status.code();
  msg.message = status.message();
  const std::vector<uint8_t> frame = EncodeError(msg, version);
  conn->QueueWrite(frame);
}

void SocketServer::HandleModelsRequest(Connection* conn, const Frame& frame) {
  Result<ModelsRequestMsg> request = DecodeModelsRequest(frame.body);
  if (!request.ok()) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    SendErrorFrame(conn, 0, request.status(), frame.version);
    conn->closing = true;
    return;
  }
  models_requests_.fetch_add(1, std::memory_order_relaxed);
  ModelsResponseMsg response;
  response.token = request.value().token;
  for (const ModelEntryInfo& entry : registry_->List()) {
    ModelInfoMsg info;
    info.id = entry.id;
    info.state = static_cast<uint8_t>(entry.state);
    info.checksum = entry.checksum;
    info.submitted = entry.serving.submitted;
    info.completed_ok = entry.serving.completed_ok;
    info.shed = entry.serving.rejected_full + entry.serving.rejected_shed;
    response.models.push_back(std::move(info));
  }
  conn->QueueWrite(EncodeModelsResponse(response));
  responses_sent_.fetch_add(1, std::memory_order_relaxed);
}

void SocketServer::EraseConnection(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  conns_.erase(it);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  active_connections_.store(conns_.size(), std::memory_order_relaxed);
}

void SocketServer::HandleFrame(Connection* conn, Frame frame) {
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  switch (frame.type) {
    case FrameType::kPing: {
      Result<PingMsg> ping = DecodePing(frame.body);
      if (!ping.ok()) {
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        SendErrorFrame(conn, 0, ping.status(), frame.version);
        conn->closing = true;
        return;
      }
      pings_.fetch_add(1, std::memory_order_relaxed);
      const std::vector<uint8_t> pong =
          EncodePing(FrameType::kPong, ping.value(), frame.version);
      conn->QueueWrite(pong);
      return;
    }
    case FrameType::kPredictRequest: {
      Result<PredictRequestMsg> request =
          DecodePredictRequest(frame.body, frame.version);
      if (!request.ok()) {
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        SendErrorFrame(conn, 0, request.status(), frame.version);
        conn->closing = true;
        return;
      }
      requests_received_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t request_id = request.value().request_id;
      if (drain_requested_.load(std::memory_order_acquire)) {
        refusals_sent_.fetch_add(1, std::memory_order_relaxed);
        SendErrorFrame(conn, request_id,
                       Status::FailedPrecondition("server is draining"),
                       frame.version);
        return;
      }
      if (conn->in_flight >= options_.max_in_flight_per_connection) {
        refusals_sent_.fetch_add(1, std::memory_order_relaxed);
        TREEWM_LOG_EVERY_N(LogLevel::kWarning, 256,
                           "wire: per-connection in-flight cap hit");
        SendErrorFrame(conn, request_id,
                       Status::ResourceExhausted(
                           "per-connection in-flight cap reached"),
                       frame.version);
        return;
      }
      RequestOptions req_options;
      req_options.timeout = request.value().timeout;
      // Empty id (every v1 frame, and v2 frames that leave it blank) lands
      // on the default model; an unknown id completes at once with
      // NotFound → typed error frame, connection kept.
      const std::string& model = request.value().model_id.empty()
                                     ? options_.default_model
                                     : request.value().model_id;
      conn->in_flight += 1;
      outbox_->Begin();
      registry_->Submit(
          model, request.value().features, req_options,
          [outbox = outbox_, conn_id = conn->id(), request_id,
           version = frame.version](Result<PredictResult> result) {
            outbox->Complete({conn_id, request_id, version, std::move(result)});
          });
      return;
    }
    case FrameType::kModelsRequest: {
      // The decoder only admits type 6 on v2 frames (ValidFrameType), so
      // a v1 client can never reach this path.
      HandleModelsRequest(conn, frame);
      return;
    }
    case FrameType::kPredictResponse:
    case FrameType::kPong:
    case FrameType::kError:
    case FrameType::kModelsResponse: {
      // Server-to-client message types arriving AT the server: protocol
      // violation; fail the connection closed.
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      SendErrorFrame(
          conn, 0,
          Status::ParseError("wire: client sent a server-only frame type"),
          frame.version);
      conn->closing = true;
      return;
    }
  }
}

void SocketServer::ApplyCompletions() {
  for (Outbox::Completion& completion : outbox_->Take()) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) {
      responses_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection* conn = it->second.get();
    if (conn->in_flight > 0) conn->in_flight -= 1;
    if (completion.result.ok()) {
      PredictResponseMsg msg;
      msg.request_id = completion.request_id;
      msg.label = completion.result.value().label;
      msg.votes = std::move(completion.result.value().votes);
      conn->QueueWrite(EncodePredictResponse(msg, completion.version));
      responses_sent_.fetch_add(1, std::memory_order_relaxed);
    } else {
      refusals_sent_.fetch_add(1, std::memory_order_relaxed);
      SendErrorFrame(conn, completion.request_id, completion.result.status(),
                     completion.version);
    }
  }
}

void SocketServer::AcceptRound() {
  for (int i = 0; i < kMaxAcceptsPerRound; ++i) {
    Result<AcceptOutcome> accepted = AcceptConnection(listener_);
    if (!accepted.ok()) {
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      TREEWM_LOG_EVERY_N(LogLevel::kWarning, 256,
                         "wire: accept failed: " + accepted.status().ToString());
      continue;  // transient: keep draining the backlog
    }
    if (accepted.value().would_block) return;
    Fd fd = std::move(accepted.value().fd);
    const auto now = clock_->Now();
    if (conns_.size() >= options_.max_connections) {
      // Accept-shed: answer one typed refusal, then close. Best effort —
      // the socket buffer of a fresh connection takes a small frame.
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      TREEWM_LOG_EVERY_N(LogLevel::kWarning, 256,
                         "wire: connection high-water, shedding accept");
      ErrorMsg msg;
      msg.request_id = 0;
      msg.code = StatusCode::kResourceExhausted;
      msg.message = "connection limit reached";
      std::vector<uint8_t> frame = EncodeError(msg);
      size_t written = 0;
      while (written < frame.size()) {
        Result<IoOutcome> wrote =
            WriteSome(fd, frame.data() + written, frame.size() - written);
        if (!wrote.ok() || wrote.value().would_block) break;
        if (wrote.value().bytes == 0) break;
        written += wrote.value().bytes;
      }
      continue;
    }
    const uint64_t id = next_conn_id_++;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(id, std::make_unique<Connection>(id, std::move(fd), now,
                                                    options_.max_body_bytes));
    active_connections_.store(conns_.size(), std::memory_order_relaxed);
  }
}

void SocketServer::EventLoop() {
  std::vector<pollfd> poll_fds;
  std::vector<uint64_t> poll_conn_ids;  // parallel to poll_fds, 0 = not a conn
  std::vector<uint64_t> to_erase;
  std::vector<Frame> frames;

  while (true) {
    const bool draining = drain_requested_.load(std::memory_order_acquire);
    auto now = clock_->Now();
    if (draining) {
      if (listener_.valid()) listener_.Close();
      if (drain_deadline_at_ == kNoDeadline) {
        drain_deadline_at_ = options_.drain_deadline.count() > 0
                                 ? now + options_.drain_deadline
                                 : now;
      }
    }

    ApplyCompletions();

    // Close what is finished; during drain, idle connections are done too.
    to_erase.clear();
    for (auto& [id, conn] : conns_) {
      if (draining && conn->in_flight == 0 && !conn->wants_write()) {
        conn->closing = true;
      }
      if (conn->closing && !conn->wants_write()) to_erase.push_back(id);
    }
    for (uint64_t id : to_erase) EraseConnection(id);

    if (draining) {
      const bool deadline_passed = now >= drain_deadline_at_;
      if (conns_.empty()) return;
      if (deadline_passed) {
        // Force-close the stragglers; their in-flight answers surface as
        // responses_dropped when Shutdown closes the outbox.
        to_erase.clear();
        for (auto& [id, conn] : conns_) to_erase.push_back(id);
        for (uint64_t id : to_erase) EraseConnection(id);
        return;
      }
    }

    // ---- build the poll set ----
    poll_fds.clear();
    poll_conn_ids.clear();
    poll_fds.push_back(pollfd{wake_read_.get(), POLLIN, 0});
    poll_conn_ids.push_back(0);
    if (!draining && listener_.valid()) {
      poll_fds.push_back(pollfd{listener_.get(), POLLIN, 0});
      poll_conn_ids.push_back(0);
    }
    std::chrono::nanoseconds wait = std::chrono::nanoseconds::max();
    if (draining) wait = drain_deadline_at_ - now;
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (conn->wants_write()) events |= POLLOUT;
      poll_fds.push_back(pollfd{conn->fd(), events, 0});
      poll_conn_ids.push_back(id);
      if (options_.idle_timeout.count() > 0 && conn->in_flight == 0 &&
          !conn->wants_write()) {
        wait = std::min(wait,
                        conn->last_activity() + options_.idle_timeout - now);
      }
    }
    const int timeout_ms = wait == std::chrono::nanoseconds::max()
                               ? -1
                               : ToPollTimeoutMs(wait);
    int rc;
    do {
      rc = ::poll(poll_fds.data(), poll_fds.size(), timeout_ms);
    } while (rc < 0 && errno == EINTR);
    now = clock_->Now();
    // Drained here, before the next ApplyCompletions swaps the outbox: a
    // completion landing after that swap finds it empty and re-arms the
    // pipe, so no wake is lost.
    if (poll_fds[0].revents != 0) DrainWakePipe(wake_read_);

    // ---- events ----
    for (size_t i = 1; i < poll_fds.size(); ++i) {
      const pollfd& entry = poll_fds[i];
      if (entry.revents == 0) continue;
      if (poll_conn_ids[i] == 0) {
        AcceptRound();
        continue;
      }
      auto it = conns_.find(poll_conn_ids[i]);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();

      if ((entry.revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
          !conn->closing) {
        frames.clear();
        Status error = Status::OK();
        const ReadEvent event = conn->ReadAndDecode(now, &frames, &error);
        for (Frame& frame : frames) {
          if (conn->closing) break;  // a poisoned frame closed the stream
          HandleFrame(conn, std::move(frame));
        }
        if (event == ReadEvent::kEof) {
          if (conn->HasPartialFrame()) {
            closed_mid_frame_.fetch_add(1, std::memory_order_relaxed);
          }
          // Full close: the peer is gone, answers are undeliverable.
          EraseConnection(conn->id());
          continue;
        }
        if (event == ReadEvent::kError) {
          if (error.code() == StatusCode::kParseError) {
            parse_errors_.fetch_add(1, std::memory_order_relaxed);
            TREEWM_LOG_EVERY_N(LogLevel::kWarning, 256,
                               "wire: framing error: " + error.ToString());
            SendErrorFrame(conn, 0, error);
            // discard ok: best-effort farewell; the close below is the
            // real handling and a failed flush changes nothing
            (void)conn->FlushWrites(now);
          } else {
            transport_errors_.fetch_add(1, std::memory_order_relaxed);
            TREEWM_LOG_EVERY_N(LogLevel::kWarning, 256,
                               "wire: read failed: " + error.ToString());
          }
          EraseConnection(conn->id());
          continue;
        }
      }

      if (conn->wants_write()) {
        Status flushed = conn->FlushWrites(now);
        if (!flushed.ok()) {
          transport_errors_.fetch_add(1, std::memory_order_relaxed);
          TREEWM_LOG_EVERY_N(LogLevel::kWarning, 256,
                             "wire: write failed: " + flushed.ToString());
          EraseConnection(conn->id());
          continue;
        }
      }
      if (conn->closing && !conn->wants_write()) EraseConnection(conn->id());
    }

    // ---- idle sweep ----
    if (options_.idle_timeout.count() > 0) {
      to_erase.clear();
      for (auto& [id, conn] : conns_) {
        if (conn->in_flight == 0 && !conn->wants_write() &&
            now - conn->last_activity() >= options_.idle_timeout) {
          to_erase.push_back(id);
        }
      }
      for (uint64_t id : to_erase) {
        idle_closed_.fetch_add(1, std::memory_order_relaxed);
        EraseConnection(id);
      }
    }
  }
}

void SocketServer::Shutdown() {
  bool expected = false;
  if (!shutdown_started_.compare_exchange_strong(expected, true)) return;
  drain_requested_.store(true, std::memory_order_release);
  SignalWakePipe(outbox_->wake_write);
  // Joins after EventLoop returns: drain complete or deadline hit.
  loop_pool_->Shutdown();
  // The loop is gone; nothing further can be delivered. Whatever is still
  // queued or in flight is dropped — counted here, exactly once.
  responses_dropped_.fetch_add(outbox_->Close(), std::memory_order_relaxed);
}

}  // namespace treewm::serve::wire
