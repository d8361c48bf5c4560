// Client-side helpers for speaking the v2 wire protocol over a raw loopback
// socket: pipelined predict-request encoding and a reply reader. Both the
// wire black box and the open-loop generator use them, so requests are
// encoded and replies parsed the same way on every benchmark path.

#ifndef PERFBENCH_WIRE_IO_H_
#define PERFBENCH_WIRE_IO_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/wire/frame.h"
#include "serve/wire/sockets.h"

namespace perfbench {

/// One parsed answer to a predict request.
struct Reply {
  uint64_t request_id = 0;
  bool ok = false;  ///< a predict response (false = typed error frame)
  treewm::StatusCode code = treewm::StatusCode::kOk;
  std::vector<int8_t> votes;
};

/// Appends one complete v2 predict-request frame addressed to `model_id`.
void AppendPredictFrame(uint64_t request_id, const std::string& model_id,
                        std::span<const float> features, std::vector<uint8_t>* out);

/// Writes every byte of `bytes` to a blocking socket.
[[nodiscard]] treewm::Status WriteAll(const treewm::serve::wire::Fd& fd,
                                      std::span<const uint8_t> bytes);

/// Reassembles replies from one connection. The socket's receive timeout
/// bounds each Next() call.
class ReplyReader {
 public:
  explicit ReplyReader(const treewm::serve::wire::Fd* fd) : fd_(fd) {}

  /// The next reply; nullopt when the receive timeout expired first. A
  /// closed connection, a transport error or a malformed frame is an error.
  [[nodiscard]] treewm::Result<std::optional<Reply>> Next();

  /// Time spent reassembling and parsing frames (not waiting for bytes);
  /// measured only while tracing is on.
  double decode_ns() const { return decode_ns_; }

 private:
  [[nodiscard]] treewm::Result<std::optional<Reply>> DecodeBuffered();

  const treewm::serve::wire::Fd* fd_;
  treewm::serve::wire::FrameDecoder decoder_;
  std::vector<uint8_t> chunk_ = std::vector<uint8_t>(1 << 16);
  double decode_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_IO_H_
