// Black-box watermark verification — the Alice/Bob/Charlie protocol (§3.2).
//
// Alice (owner) hands the legal authority Charlie her signature σ, the
// trigger set and a test set containing it. Charlie queries Bob's model
// black-box on the disguised batch (trigger rows shuffled among test rows,
// so Bob cannot special-case them — the suppression defence) and checks
// that every trigger instance is classified correctly by tree i iff σ_i = 0.

#ifndef TREEWM_CORE_VERIFICATION_H_
#define TREEWM_CORE_VERIFICATION_H_

#include <memory>
#include <span>
#include <vector>

#include "core/signature.h"
#include "data/dataset.h"
#include "forest/random_forest.h"
#include "predict/vote_matrix.h"

namespace treewm::core {

/// log10 of the binomial tail P[X >= k] for X ~ Binomial(n, p), summed
/// exactly in log space (n is a trigger size — tiny). Conventions:
/// k == 0 -> 0.0 (certain event); k > n -> -inf (impossible event — more
/// successes than trials); p <= 0 -> -inf (for k >= 1); p >= 1 -> 0.0.
/// Exposed for the verification statistics and their regression tests.
double Log10BinomialTail(size_t n, size_t k, double p);

/// Query-only access to a suspect model: per-tree predictions for one
/// instance (R's `predict.all` contract). Implementations must not expose
/// parameters — Charlie only sees outputs.
class BlackBoxModel {
 public:
  virtual ~BlackBoxModel() = default;

  /// Number of trees in the suspect ensemble (observable from any query).
  virtual size_t NumTrees() const = 0;

  /// Per-tree prediction sequence for `x`.
  virtual std::vector<int> QueryPredictAll(std::span<const float> x) const = 0;

  /// Per-tree predictions for every row of `batch` as one flat row-major
  /// vote matrix. The protocol submits the whole disguised batch through
  /// this entry point and scores directly off the matrix — no per-row
  /// vectors. The default loops QueryPredictAll row by row; implementations
  /// backed by a real ensemble override it with the batched flat-inference
  /// engine.
  virtual predict::VoteMatrix QueryPredictAllVotes(const data::Dataset& batch) const;
};

/// Adapter exposing a RandomForest through the black-box interface.
class ForestBlackBox : public BlackBoxModel {
 public:
  explicit ForestBlackBox(const forest::RandomForest& forest) : forest_(forest) {}

  size_t NumTrees() const override { return forest_.num_trees(); }

  std::vector<int> QueryPredictAll(std::span<const float> x) const override {
    return forest_.PredictAll(x);
  }

  predict::VoteMatrix QueryPredictAllVotes(
      const data::Dataset& batch) const override {
    return forest_.PredictAllVotes(batch);  // batched flat-ensemble engine
  }

 private:
  const forest::RandomForest& forest_;
};

/// What Alice submits to Charlie.
struct VerificationRequest {
  Signature signature;
  data::Dataset trigger_set;  ///< original labels
  data::Dataset test_set;     ///< decoys drawn from the same distribution
};

/// Charlie's findings.
struct VerificationReport {
  /// True when every trigger instance matches the full per-tree pattern.
  bool verified = false;
  /// Trigger instances whose complete m-bit pattern matched.
  size_t matching_instances = 0;
  size_t trigger_size = 0;
  /// Fraction of (trigger instance, tree) pairs matching the required bit.
  double bit_match_rate = 0.0;
  /// Same statistic on the decoy test rows — the baseline an unrelated model
  /// would show. A watermark shows bit_match_rate 1.0 >> control_match_rate.
  double control_match_rate = 0.0;
  /// log10 of the probability that a signature-agnostic model (per-tree
  /// match probability = control_match_rate, independence across trees and
  /// instances) matches at least as many full patterns. Large negative =
  /// strong evidence of the watermark.
  double log10_p_value = 0.0;

  /// log10 of the probability that a signature-agnostic model matches at
  /// least as many individual (instance, tree) bits. The full-pattern
  /// statistic above is brittle against model modification (one flipped
  /// leaf voids a whole instance); the bit-level statistic degrades
  /// gracefully and is the right measure against tampering attackers.
  double log10_bit_p_value = 0.0;

  /// Practical ruling: the paper's check is strict (`verified` = every
  /// trigger instance matches), but a handful of misses still leaves
  /// overwhelming statistical evidence — e.g. after a partial embed, minor
  /// model drift, or a tampering attacker. Conclusive means either p-value
  /// is below 10^-10 under the null model.
  bool conclusive() const {
    return log10_p_value < -10.0 || log10_bit_p_value < -10.0;
  }
};

/// The legal authority's verification procedure.
class VerificationAuthority {
 public:
  /// Runs the protocol: builds the disguised batch, queries `model`, checks
  /// the per-tree pattern on the trigger rows. `rng` shuffles the batch.
  [[nodiscard]] static Result<VerificationReport> Verify(const BlackBoxModel& model,
                                           const VerificationRequest& request,
                                           Rng* rng);
};

}  // namespace treewm::core

#endif  // TREEWM_CORE_VERIFICATION_H_
