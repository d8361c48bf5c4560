#include "wire_io.h"

#include <chrono>

#include "trace.h"

namespace perfbench {

using treewm::Result;
using treewm::Status;
namespace wire = treewm::serve::wire;

void AppendPredictFrame(uint64_t request_id, const std::string& model_id,
                        std::span<const float> features, std::vector<uint8_t>* out) {
  wire::PredictRequestMsg msg;
  msg.request_id = request_id;
  msg.model_id = model_id;
  msg.features.assign(features.begin(), features.end());
  const std::vector<uint8_t> frame =
      wire::EncodePredictRequest(msg, wire::kWireVersionMultiModel);
  out->insert(out->end(), frame.begin(), frame.end());
}

Status WriteAll(const wire::Fd& fd, std::span<const uint8_t> bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    TREEWM_ASSIGN_OR_RETURN(
        wire::IoOutcome wrote,
        wire::WriteSome(fd, bytes.data() + written, bytes.size() - written));
    written += wrote.bytes;
  }
  return Status::OK();
}

Result<std::optional<Reply>> ReplyReader::Next() {
  for (;;) {
    const bool timed = Tracer::Get().enabled();
    const auto start = std::chrono::steady_clock::now();
    Result<std::optional<Reply>> reply = DecodeBuffered();
    if (timed) {
      decode_ns_ += std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    }
    if (!reply.ok() || reply.value().has_value()) return reply;
    TREEWM_ASSIGN_OR_RETURN(wire::IoOutcome got,
                            wire::ReadSome(*fd_, chunk_.data(), chunk_.size()));
    if (got.eof) return Status::IoError("server closed the connection");
    if (got.would_block) return std::optional<Reply>();
    decoder_.Feed(std::span<const uint8_t>(chunk_.data(), got.bytes));
  }
}

Result<std::optional<Reply>> ReplyReader::DecodeBuffered() {
  TREEWM_ASSIGN_OR_RETURN(std::optional<wire::Frame> frame, decoder_.Next());
  if (!frame.has_value()) return std::optional<Reply>();
  Reply reply;
  if (frame->type == wire::FrameType::kPredictResponse) {
    TREEWM_ASSIGN_OR_RETURN(wire::PredictResponseMsg msg,
                            wire::DecodePredictResponse(frame->body));
    reply.request_id = msg.request_id;
    reply.ok = true;
    reply.votes = std::move(msg.votes);
  } else if (frame->type == wire::FrameType::kError) {
    TREEWM_ASSIGN_OR_RETURN(wire::ErrorMsg msg, wire::DecodeError(frame->body));
    if (msg.request_id == 0) return msg.ToStatus();  // connection-level
    reply.request_id = msg.request_id;
    reply.code = msg.code;
  } else {
    return Status::ParseError("unexpected frame type in a reply stream");
  }
  return std::optional<Reply>(std::move(reply));
}

}  // namespace perfbench
