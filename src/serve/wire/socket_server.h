// Poll-based event-loop socket server over a ModelRegistry.
//
// The wire half of the verification service (rspamd's scanning-daemon
// shape): one nonblocking listener + one poll loop own every connection.
// Decoded requests are submitted to the UNCHANGED serving stack (bounded
// admission, coalescing batcher, deadlines, shedding) with a completion
// callback that hands the answer back to the loop. Per-request deadlines
// travel in the request frame's timeout field, so the admission/dispatch/
// completion checks apply to wire traffic exactly as to in-process callers.
//
// Routing is by the v2 frame's model-id field. A v1 frame (or a v2 frame
// with an empty model id) lands on options.default_model, so v1 clients
// keep working byte-for-byte; an unknown model id earns a typed NotFound
// error frame and the connection is KEPT — picking a missing model is the
// client's mistake, not a framing failure. The v2 kModelsRequest frame
// answers a kModelsResponse listing every model (id, lifecycle state, image
// checksum, shed counters). To serve one model, load it into a one-model
// registry and make it the default. Response and error frames are stamped
// with the version of the request frame they answer.
//
// Robustness envelope at the wire:
//   * keep-alive connections with an idle timeout (a silent client cannot
//     hold a slot forever);
//   * per-connection in-flight cap — a pipelining client that overruns it
//     is refused ResourceExhausted per overflowing request, connection kept;
//   * connection-count high-water with accept-shedding: above
//     max_connections a fresh connection is answered one ResourceExhausted
//     error frame and closed (a typed refusal, not a silent backlog drop);
//   * fail-closed framing: a malformed frame earns a best-effort typed
//     error frame and the connection is closed — framing is unrecoverable
//     once lost (see frame.h);
//   * graceful drain: Shutdown() closes the listener, lets in-flight
//     requests finish (bounded by drain_deadline), flushes their responses,
//     then tears everything down. Every request received on the wire is
//     answered or refused exactly once; answers whose connection died, or
//     still in flight when the drain ended, count in responses_dropped.
//
// Determinism contract (tests/test_wire.cc): completed responses are
// bit-identical to the in-process result for the same feature vector,
// across connection counts × batch shapes × fault schedules. The wire can
// change WHICH requests complete, never the value a completed request is
// served.
//
// Threading: ONE thread, the poll loop, on a 1-worker ThreadPool
// (drain-on-shutdown is the join protocol). Connections and the conns_ map
// are loop-thread-only (externally-guarded capability, like Batcher).
// Completion callbacks run on the models' dispatcher threads and touch
// only the shared, Mutex-guarded Outbox, which outlives the server: a
// completion after Shutdown — even after destruction — is a no-op. Answers
// reach the loop in completion order, so one model's slow batch never
// holds back another model's finished answers. Counters are atomics.

#ifndef TREEWM_SERVE_WIRE_SOCKET_SERVER_H_
#define TREEWM_SERVE_WIRE_SOCKET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "serve/request.h"
#include "serve/wire/connection.h"
#include "serve/wire/frame.h"
#include "serve/wire/sockets.h"

namespace treewm::serve {
class ModelRegistry;
}  // namespace treewm::serve

namespace treewm::serve::wire {

struct SocketServerOptions {
  /// Loopback port to listen on (0 = kernel-assigned; read it back via
  /// port()).
  uint16_t port = 0;
  /// listen(2) backlog.
  int backlog = 64;
  /// Connection-count high-water: accepts above this are shed with one
  /// ResourceExhausted error frame. >= 1.
  size_t max_connections = 64;
  /// Per-connection cap on submitted-but-unanswered requests; overflowing
  /// requests are refused ResourceExhausted (connection kept). >= 1.
  size_t max_in_flight_per_connection = 64;
  /// Close connections with no in-flight work after this much quiet time
  /// (0 = never).
  std::chrono::nanoseconds idle_timeout = std::chrono::seconds(30);
  /// Shutdown() waits at most this long for in-flight requests to finish
  /// and their responses to flush.
  std::chrono::nanoseconds drain_deadline = std::chrono::seconds(5);
  /// Frame-body ceiling handed to each connection's decoder.
  size_t max_body_bytes = kDefaultMaxBodyBytes;
  /// The model v1 frames (and v2 frames with an empty model id) are routed
  /// to. Must name a loaded model for such requests to
  /// complete — an unknown id is refused NotFound per request.
  std::string default_model;
  /// Time source for idle/drain arithmetic (nullptr = system clock). Real
  /// sockets need real time; FakeClock only suits unit tests that never
  /// poll.
  Clock* clock = nullptr;
};

/// Counter snapshot. After Shutdown() the wire accounting closes:
/// requests_received + models_requests ==
///     responses_sent + refusals_sent + responses_dropped.
struct WireStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_shed = 0;     ///< over max_connections
  uint64_t accept_failures = 0;      ///< transient accept errors (incl. fault)
  uint64_t connections_closed = 0;   ///< every close, any reason
  uint64_t idle_closed = 0;          ///< closed by the idle timeout
  uint64_t closed_mid_frame = 0;     ///< peer vanished inside a frame
  uint64_t parse_errors = 0;         ///< framing/body decode failures
  uint64_t transport_errors = 0;     ///< read/write resets and friends
  uint64_t frames_received = 0;
  uint64_t pings = 0;
  uint64_t requests_received = 0;    ///< well-formed predict requests
  uint64_t models_requests = 0;      ///< well-formed models-list requests
  uint64_t responses_sent = 0;       ///< predict responses queued to a socket
  uint64_t refusals_sent = 0;        ///< typed error frames for a request id
  uint64_t responses_dropped = 0;    ///< answers whose connection was gone
  uint64_t active_connections = 0;   ///< point-in-time
};

class SocketServer {
 public:
  /// Binds, starts the loop, returns a serving server. `registry` is
  /// borrowed and must outlive the server; options.default_model must be
  /// non-empty — it is where every v1 frame lands. The registry's
  /// bulkheads use OverflowPolicy::kReject (enforced by ModelRegistry), so
  /// admission never stalls the event loop — the wire's backpressure is the
  /// typed refusal.
  [[nodiscard]] static Result<std::unique_ptr<SocketServer>> Create(
      ModelRegistry* registry, SocketServerOptions options);

  /// Shuts down (drains) if the caller has not already.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound loopback port.
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, finish or refuse everything in flight
  /// (bounded by drain_deadline), close all connections, join the loop.
  /// Requires the registry to be completing requests (dispatcher mode, or
  /// an owner pumping manually) — otherwise in-flight answers are abandoned
  /// at the drain deadline and counted dropped. Idempotent.
  void Shutdown();

  WireStats stats() const;

 private:
  struct Outbox;

  SocketServer(ModelRegistry* registry, SocketServerOptions options,
               Fd listener, Fd wake_read, Fd wake_write, uint16_t port);

  void EventLoop();

  // --- loop-thread-only helpers (conns_ is externally synchronized by the
  // --- single loop driver; see class comment) ---
  void AcceptRound();
  void HandleFrame(Connection* conn, Frame frame);
  void ApplyCompletions();
  void SendErrorFrame(Connection* conn, uint64_t request_id,
                      const Status& status, uint8_t version = kWireVersion);
  void HandleModelsRequest(Connection* conn, const Frame& frame);
  void EraseConnection(uint64_t id);

  ModelRegistry* registry_;
  SocketServerOptions options_;
  Clock* clock_;
  uint16_t port_;

  Fd listener_;        // loop thread closes it when draining begins
  Fd wake_read_;

  /// Shared with every in-flight completion callback (see Outbox).
  std::shared_ptr<Outbox> outbox_;

  /// Loop-thread-only (single driver — never touched off the event loop).
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;
  std::chrono::nanoseconds drain_deadline_at_{kNoDeadline};

  std::unique_ptr<ThreadPool> loop_pool_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> shutdown_started_{false};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_shed_{0};
  std::atomic<uint64_t> accept_failures_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> closed_mid_frame_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> transport_errors_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> pings_{0};
  std::atomic<uint64_t> requests_received_{0};
  std::atomic<uint64_t> models_requests_{0};
  std::atomic<uint64_t> responses_sent_{0};
  std::atomic<uint64_t> refusals_sent_{0};
  std::atomic<uint64_t> responses_dropped_{0};
  std::atomic<uint64_t> active_connections_{0};
};

}  // namespace treewm::serve::wire

#endif  // TREEWM_SERVE_WIRE_SOCKET_SERVER_H_
