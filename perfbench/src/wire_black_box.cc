#include "wire_black_box.h"

#include <algorithm>
#include <chrono>

#include "trace.h"
#include "util.h"

namespace perfbench {

using treewm::Result;
using treewm::Status;
namespace wire = treewm::serve::wire;

Result<std::unique_ptr<WireBlackBox>> WireBlackBox::Connect(uint16_t port,
                                                            std::string model_id,
                                                            size_t num_trees,
                                                            size_t window) {
  if (window == 0) return Status::InvalidArgument("window must be positive");
  TREEWM_ASSIGN_OR_RETURN(wire::Fd fd,
                          wire::ConnectTcpLoopback(port, std::chrono::seconds(10)));
  return std::unique_ptr<WireBlackBox>(
      new WireBlackBox(std::move(fd), std::move(model_id), num_trees, window));
}

WireBlackBox::WireBlackBox(wire::Fd fd, std::string model_id, size_t num_trees,
                           size_t window)
    : fd_(std::move(fd)),
      model_id_(std::move(model_id)),
      num_trees_(num_trees),
      window_(window),
      reader_(&fd_) {}

std::vector<int> WireBlackBox::QueryPredictAll(std::span<const float> x) const {
  treewm::data::Dataset one(x.size());
  if (!one.AddRow(x, treewm::data::kPositive).ok()) {
    status_ = Status::InvalidArgument("bad query row");
    return {};
  }
  const treewm::predict::VoteMatrix votes = QueryPredictAllVotes(one);
  if (!status_.ok()) return {};
  return std::vector<int>(votes.row(0).begin(), votes.row(0).end());
}

treewm::predict::VoteMatrix WireBlackBox::QueryPredictAllVotes(
    const treewm::data::Dataset& batch) const {
  treewm::predict::VoteMatrix out(batch.num_rows(), num_trees_);
  for (size_t begin = 0; begin < batch.num_rows() && status_.ok(); begin += window_) {
    const size_t end = std::min(batch.num_rows(), begin + window_);
    ScopedSpan span("verify_wire.window", begin);
    const Status s = QueryWindow(batch, begin, end, &out);
    if (!s.ok()) status_ = s;
  }
  return out;
}

Status WireBlackBox::QueryWindow(const treewm::data::Dataset& batch, size_t begin,
                                 size_t end, treewm::predict::VoteMatrix* out) const {
  const bool timed = Tracer::Get().enabled();
  const uint64_t first_id = next_id_;
  const auto t0 = SteadyClock::now();
  out_bytes_.clear();
  for (size_t r = begin; r < end; ++r) {
    AppendPredictFrame(next_id_++, model_id_, batch.Row(r), &out_bytes_);
  }
  if (timed) {
    encode_ns_ += std::chrono::duration<double, std::nano>(SteadyClock::now() - t0).count();
  }
  TREEWM_RETURN_IF_ERROR(WriteAll(fd_, out_bytes_));

  for (size_t answered = 0; answered < end - begin;) {
    TREEWM_ASSIGN_OR_RETURN(std::optional<Reply> reply, reader_.Next());
    if (!reply.has_value()) return Status::Timeout("wire black box: no reply");
    if (reply->request_id < first_id || reply->request_id >= first_id + (end - begin)) {
      return Status::ParseError("wire black box: reply for an unknown request");
    }
    if (!reply->ok) {
      return Status(reply->code, "wire black box: request refused");
    }
    if (reply->votes.size() != num_trees_) {
      return Status::ParseError("wire black box: wrong vote count");
    }
    const size_t row = begin + (reply->request_id - first_id);
    std::copy(reply->votes.begin(), reply->votes.end(), out->mutable_row(row));
    ++answered;
  }
  if (timed) traced_rows_ += end - begin;
  return Status::OK();
}

double WireBlackBox::encode_us_per_row() const {
  return traced_rows_ == 0 ? 0.0 : encode_ns_ / 1e3 / static_cast<double>(traced_rows_);
}

double WireBlackBox::decode_us_per_row() const {
  return traced_rows_ == 0 ? 0.0
                           : reader_.decode_ns() / 1e3 / static_cast<double>(traced_rows_);
}

}  // namespace perfbench
