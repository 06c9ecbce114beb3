// Adapts the paper's CNN architectures to the ml::Classifier interface
// so they can be registered in the serve ModelRegistry and driven by
// the streaming attack like any classical head. Inference is batched:
// predict_proba_batch stages N rows into one tensor and runs a single
// forward, which the nn layer contract guarantees is bitwise identical
// per row to N separate batch-1 forwards (DESIGN.md §13).
#pragma once

#include <mutex>

#include "ml/classifier.h"
#include "nn/cnn_models.h"
#include "util/parallel.h"

namespace emoleak::nn {

class CnnClassifier final : public ml::Classifier {
 public:
  enum class Arch {
    kTimefreq,     ///< (N, 1, D, 1) z-scored feature vectors
    kSpectrogram,  ///< (N, H, W, 1) spectrogram images
  };

  /// `dim` is the feature count (timefreq) or height*width of a square
  /// image (spectrogram). The network is built lazily at fit() when
  /// the class count is known.
  CnnClassifier(Arch arch, std::size_t dim, CnnConfig config = CnnConfig::fast(),
                TrainConfig train = {});

  void fit(const ml::Dataset& data) override;
  [[nodiscard]] int predict(std::span<const double> row) const override;
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> row) const override;
  [[nodiscard]] std::vector<double> predict_proba_batch(
      std::span<const double> rows, std::size_t dim,
      std::size_t count) const override;
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override;
  [[nodiscard]] std::string name() const override {
    return arch_ == Arch::kTimefreq ? "CnnTimefreq" : "CnnSpectrogram";
  }

  /// Thread fan-out for fit() and multi-row predict_proba_batch calls
  /// (defaults to the hardware count; single-row predicts run serial).
  /// Bit-identical weights and probabilities at any setting — see
  /// Layer::set_parallelism.
  void set_parallelism(util::Parallelism par);

  /// Per-epoch curves of the last fit() (empty before the first).
  [[nodiscard]] History history() const;

 private:
  /// Stages `count` rows into input_ (scaling timefreq rows), runs one
  /// forward, softmaxes each logit row in double. Caller holds mu_.
  [[nodiscard]] std::vector<double> forward_batch(std::span<const double> rows,
                                                  std::size_t dim,
                                                  std::size_t count) const;
  /// Writes one input row as the network sees it (timefreq rows scaled).
  void stage_row(std::span<const double> row, float* dst) const;

  Arch arch_;
  std::size_t dim_ = 0;       ///< flattened input width
  std::size_t side_ = 0;      ///< image side for kSpectrogram
  int classes_ = 0;
  CnnConfig config_{};
  TrainConfig train_{};
  util::Parallelism par_{};  ///< batched-inference fan-out (0 = hardware)
  ml::StandardScaler scaler_;  ///< timefreq z-scoring (paper §IV-D2)
  History history_;
  // Sequential reuses per-layer buffers across forwards, so inference
  // mutates state; the registry shares one const model across shards.
  mutable Sequential net_;
  mutable Tensor input_;
  mutable std::mutex mu_;
};

}  // namespace emoleak::nn
