// A core::BlackBoxModel answered over the wire: Charlie's queries travel as
// v2 predict frames to one model of a SocketServer in registry mode, so
// VerificationAuthority::Verify runs through decode → registry → front-end
// → BatchPredictor → socket write.
//
// A batch is sent pipelined in windows: the frames of one window go out in
// one write, and the next window is sent once every answer of the previous
// one arrived. The window must stay below the model's shed high-water mark;
// an unwindowed pipeline of a whole disguised batch is shed by the server's
// admission gate.
//
// BlackBoxModel's query methods cannot return a Status, so the first
// failure is kept (status()) and later queries return empty votes; callers
// check status() after Verify.

#ifndef PERFBENCH_WIRE_BLACK_BOX_H_
#define PERFBENCH_WIRE_BLACK_BOX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/verification.h"
#include "wire_io.h"

namespace perfbench {

class WireBlackBox : public treewm::core::BlackBoxModel {
 public:
  /// Dials `port` and addresses `model_id`, which serves `num_trees` trees.
  [[nodiscard]] static treewm::Result<std::unique_ptr<WireBlackBox>> Connect(
      uint16_t port, std::string model_id, size_t num_trees, size_t window);

  WireBlackBox(const WireBlackBox&) = delete;
  WireBlackBox& operator=(const WireBlackBox&) = delete;

  size_t NumTrees() const override { return num_trees_; }
  std::vector<int> QueryPredictAll(std::span<const float> x) const override;
  treewm::predict::VoteMatrix QueryPredictAllVotes(
      const treewm::data::Dataset& batch) const override;

  /// OK, or the first failure any query ran into.
  const treewm::Status& status() const { return status_; }

  /// Time spent encoding request frames and parsing replies, and the rows
  /// each covered; accumulated only while tracing is on.
  double encode_us_per_row() const;
  double decode_us_per_row() const;

 private:
  WireBlackBox(treewm::serve::wire::Fd fd, std::string model_id, size_t num_trees,
               size_t window);

  /// Sends rows [begin, end) of `batch` as one window and stores the votes
  /// of row r in `out` row r.
  treewm::Status QueryWindow(const treewm::data::Dataset& batch, size_t begin,
                             size_t end, treewm::predict::VoteMatrix* out) const;

  treewm::serve::wire::Fd fd_;
  std::string model_id_;
  size_t num_trees_;
  size_t window_;
  // Query state; BlackBoxModel's interface is const.
  mutable ReplyReader reader_;
  mutable std::vector<uint8_t> out_bytes_;
  mutable uint64_t next_id_ = 1;
  mutable treewm::Status status_;
  mutable double encode_ns_ = 0;
  mutable uint64_t traced_rows_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_BLACK_BOX_H_
