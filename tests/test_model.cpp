// Tests for the Sequential model, loss, optimizer (nn/model.h), the
// two paper CNN architectures (nn/cnn_models.h) and the classifier
// that trains and serves them (nn/cnn_classifier.h).
#include "nn/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/attack.h"
#include "ml/dataset.h"
#include "nn/cnn_classifier.h"
#include "nn/cnn_models.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using emoleak::core::ExtractedData;
using emoleak::nn::build_spectrogram_cnn;
using emoleak::nn::build_timefreq_cnn;
using emoleak::nn::CnnConfig;
using emoleak::nn::Dense;
using emoleak::nn::History;
using emoleak::nn::ReLU;
using emoleak::nn::Sequential;
using emoleak::nn::softmax_cross_entropy;
using emoleak::nn::Tensor;
using emoleak::nn::TrainConfig;
using emoleak::util::Rng;

TEST(SoftmaxCrossEntropyTest, MatchesManualComputation) {
  Tensor logits{{1, 3}, {1.0f, 2.0f, 3.0f}};
  Tensor grad;
  const double loss = softmax_cross_entropy(logits, {2}, grad);
  // -log(softmax_2) = -log(e^3 / (e + e^2 + e^3)).
  const double denom = std::exp(1.0) + std::exp(2.0) + std::exp(3.0);
  EXPECT_NEAR(loss, -std::log(std::exp(3.0) / denom), 1e-6);
  // Gradient: p - onehot (divided by batch size 1).
  EXPECT_NEAR(grad[0], std::exp(1.0) / denom, 1e-6);
  EXPECT_NEAR(grad[2], std::exp(3.0) / denom - 1.0, 1e-6);
}

TEST(SoftmaxCrossEntropyTest, PerfectPredictionLowLoss) {
  Tensor logits{{1, 2}, {10.0f, -10.0f}};
  Tensor grad;
  EXPECT_LT(softmax_cross_entropy(logits, {0}, grad), 1e-6);
}

TEST(SoftmaxCrossEntropyTest, GradientAveragesOverBatch) {
  Tensor logits{{2, 2}, {0.0f, 0.0f, 0.0f, 0.0f}};
  Tensor grad;
  (void)softmax_cross_entropy(logits, {0, 1}, grad);
  EXPECT_NEAR(grad[0], (0.5 - 1.0) / 2.0, 1e-6);
}

TEST(SoftmaxCrossEntropyTest, BadInputsThrow) {
  Tensor logits{{2, 2}};
  Tensor grad;
  EXPECT_THROW((void)softmax_cross_entropy(logits, {0}, grad),
               emoleak::util::DataError);
  EXPECT_THROW((void)softmax_cross_entropy(logits, {0, 5}, grad),
               emoleak::util::DataError);
}

Sequential make_mlp(std::size_t in, std::size_t hidden, int classes,
                    std::uint64_t seed) {
  Sequential m;
  m.add(std::make_unique<Dense>(in, hidden, seed));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(hidden, static_cast<std::size_t>(classes),
                                seed + 1));
  return m;
}

struct Xor {
  Tensor x;
  std::vector<int> y;
};

Xor xor_batch(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  Tensor x{{n, 2}};
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    x.at2(i, 0) = static_cast<float>(a);
    x.at2(i, 1) = static_cast<float>(b);
    y[i] = (a > 0) != (b > 0) ? 1 : 0;
  }
  return {std::move(x), std::move(y)};
}

TEST(SequentialTest, LearnsXor) {
  Sequential m = make_mlp(2, 16, 2, 1);
  const Xor data = xor_batch(400, 2);
  TrainConfig cfg;
  cfg.epochs = 60;
  cfg.learning_rate = 5e-3;
  cfg.validation_fraction = 0.0;
  const History h = m.train(data.x, data.y, 2, cfg);
  EXPECT_GT(h.train_accuracy.back(), 0.95);
  EXPECT_LT(h.train_loss.back(), h.train_loss.front());
}

TEST(SequentialTest, HistoryHasEpochEntries) {
  Sequential m = make_mlp(2, 8, 2, 3);
  const Xor data = xor_batch(100, 4);
  TrainConfig cfg;
  cfg.epochs = 7;
  cfg.validation_fraction = 0.25;
  const History h = m.train(data.x, data.y, 2, cfg);
  EXPECT_EQ(h.train_loss.size(), 7u);
  EXPECT_EQ(h.train_accuracy.size(), 7u);
  EXPECT_EQ(h.val_loss.size(), 7u);
  EXPECT_EQ(h.val_accuracy.size(), 7u);
}

TEST(SequentialTest, NoValidationWhenFractionZero) {
  Sequential m = make_mlp(2, 8, 2, 5);
  const Xor data = xor_batch(60, 6);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.validation_fraction = 0.0;
  const History h = m.train(data.x, data.y, 2, cfg);
  EXPECT_TRUE(h.val_loss.empty());
}

TEST(SequentialTest, EvaluateReportsLossAndAccuracy) {
  Sequential m = make_mlp(2, 8, 2, 9);
  const Xor data = xor_batch(50, 10);
  const auto [loss, acc] = m.evaluate(data.x, data.y);
  EXPECT_GT(loss, 0.0);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(SequentialTest, TrainIsDeterministic) {
  const Xor data = xor_batch(100, 11);
  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.seed = 42;
  Sequential a = make_mlp(2, 8, 2, 12);
  Sequential b = make_mlp(2, 8, 2, 12);
  const History ha = a.train(data.x, data.y, 2, cfg);
  const History hb = b.train(data.x, data.y, 2, cfg);
  for (std::size_t e = 0; e < ha.train_loss.size(); ++e) {
    EXPECT_DOUBLE_EQ(ha.train_loss[e], hb.train_loss[e]);
  }
}

TEST(SequentialTest, BadConfigThrows) {
  Sequential m = make_mlp(2, 4, 2, 13);
  const Xor data = xor_batch(20, 14);
  TrainConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW((void)m.train(data.x, data.y, 2, cfg),
               emoleak::util::ConfigError);
  cfg = TrainConfig{};
  EXPECT_THROW((void)m.train(data.x, {0, 1}, 2, cfg),
               emoleak::util::DataError);
  // No rows at all: there is no batch to gather and no loss to average.
  EXPECT_THROW((void)m.train(Tensor{{0, 2}}, {}, 2, cfg),
               emoleak::util::DataError);
}

TEST(SequentialTest, LabelOutOfRangeThrows) {
  Sequential m = make_mlp(2, 4, 2, 15);
  const Xor data = xor_batch(20, 16);
  std::vector<int> bad = data.y;
  bad[3] = 9;
  EXPECT_THROW((void)m.train(data.x, bad, 2, TrainConfig{}),
               emoleak::util::DataError);
}

TEST(CnnModelsTest, PaperExactWidthsMatchPublication) {
  const CnnConfig paper = CnnConfig::paper_exact();
  EXPECT_EQ(paper.spec_conv1, 128u);  // §IV-C2
  EXPECT_EQ(paper.spec_conv2, 128u);
  EXPECT_EQ(paper.spec_conv3, 64u);
  EXPECT_EQ(paper.spec_dense, 32u);
  EXPECT_EQ(paper.tf_conv1, 256u);  // §IV-D2
  EXPECT_EQ(paper.tf_conv2, 256u);
  EXPECT_EQ(paper.tf_conv3, 128u);
  EXPECT_EQ(paper.tf_conv4, 64u);
  EXPECT_EQ(paper.tf_conv5, 64u);
}

TEST(CnnModelsTest, SpectrogramCnnForwardShape) {
  Sequential m = build_spectrogram_cnn(32, 32, 7, CnnConfig::fast());
  Tensor x{{2, 32, 32, 1}};
  const Tensor y = m.forward(x, false);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 7u);
}

TEST(CnnModelsTest, TimefreqCnnForwardShape) {
  Sequential m = build_timefreq_cnn(24, 7, CnnConfig::fast());
  Tensor x{{3, 1, 24, 1}};
  const Tensor y = m.forward(x, false);
  EXPECT_EQ(y.dim(0), 3u);
  EXPECT_EQ(y.dim(1), 7u);
}

TEST(CnnModelsTest, PaperExactModelsBuildAndRun) {
  Sequential spec = build_spectrogram_cnn(32, 32, 6, CnnConfig::paper_exact());
  Tensor img{{1, 32, 32, 1}};
  EXPECT_EQ(spec.forward(img, false).dim(1), 6u);
  Sequential tf = build_timefreq_cnn(24, 6, CnnConfig::paper_exact());
  Tensor feats{{1, 1, 24, 1}};
  EXPECT_EQ(tf.forward(feats, false).dim(1), 6u);
}

TEST(CnnModelsTest, InvalidConfigThrows) {
  EXPECT_THROW((void)build_spectrogram_cnn(32, 32, 1, CnnConfig::fast()),
               emoleak::util::ConfigError);
  EXPECT_THROW((void)build_timefreq_cnn(8, 7, CnnConfig::fast()),
               emoleak::util::ConfigError);
}

TEST(CnnModelsTest, TimefreqCnnLearnsSyntheticFeatures) {
  // Class encoded in the mean of the feature vector.
  Rng rng{17};
  const std::size_t n = 200;
  Tensor x{{n, 1, 24, 1}};
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(rng.uniform_int(3));
    for (std::size_t j = 0; j < 24; ++j) {
      x[i * 24 + j] = static_cast<float>(y[i] + 0.3 * rng.normal());
    }
  }
  Sequential m = build_timefreq_cnn(24, 3, CnnConfig::fast());
  TrainConfig cfg;
  cfg.epochs = 15;
  cfg.learning_rate = 3e-3;
  cfg.validation_fraction = 0.0;
  const History h = m.train(x, y, 3, cfg);
  EXPECT_GT(h.train_accuracy.back(), 0.85);
}

TEST(CnnClassifierTest, FitKeepsNoTrainingScratch) {
  // Training leaves every layer's buffers sized to its batch of 32 and
  // the validation set. A fitted model that kept them would grow only
  // its staging tensor on the first batch-1 predict; one that released
  // them also regrows each layer's buffers there. After that first
  // predict, predicts of the same size allocate nothing.
  using emoleak::nn::CnnClassifier;
  using emoleak::nn::tensor_alloc_count;
  Rng rng{29};
  emoleak::ml::Dataset data;
  data.class_count = 3;
  for (std::size_t i = 0; i < 80; ++i) {
    const int label = static_cast<int>(i % 3);
    std::vector<double> row(24);
    for (double& v : row) v = label + 0.3 * rng.normal();
    data.x.push_back(std::move(row));
    data.y.push_back(label);
  }
  TrainConfig train;
  train.epochs = 1;
  for (const CnnClassifier::Arch arch :
       {CnnClassifier::Arch::kTimefreq, CnnClassifier::Arch::kSpectrogram}) {
    const std::size_t dim = arch == CnnClassifier::Arch::kTimefreq ? 24 : 64;
    emoleak::ml::Dataset set = data;
    for (std::vector<double>& row : set.x) row.resize(dim, row[0]);
    CnnClassifier cnn{arch, dim, CnnConfig::fast(), train};
    cnn.fit(set);
    const std::size_t fitted = tensor_alloc_count();
    (void)cnn.predict_proba(set.x[0]);
    EXPECT_GT(tensor_alloc_count() - fitted, 1u)
        << "arch=" << static_cast<int>(arch);
    const std::size_t warm = tensor_alloc_count();
    for (std::size_t i = 1; i < 10; ++i) (void)cnn.predict_proba(set.x[i]);
    EXPECT_EQ(tensor_alloc_count(), warm) << "arch=" << static_cast<int>(arch);
  }
}

// A small fixed capture: TESS through the OnePlus 7T loudspeaker,
// table-top, seed 43.
ExtractedData small_capture(double fraction) {
  emoleak::core::ScenarioConfig sc = emoleak::core::loudspeaker_scenario(
      emoleak::audio::tess_spec(), emoleak::phone::oneplus_7t(), 43);
  sc.corpus_fraction = fraction;
  return emoleak::core::capture(sc);
}

/// Trains a CnnClassifier at `threads` and returns predict_proba of
/// every training row, concatenated.
std::vector<double> cnn_train_probabilities(
    emoleak::nn::CnnClassifier::Arch arch, const emoleak::ml::Dataset& data,
    std::size_t threads) {
  emoleak::nn::TrainConfig train;
  train.epochs = 2;
  train.batch_size = 16;
  emoleak::nn::CnnClassifier cnn{arch, data.dim(),
                                 emoleak::nn::CnnConfig::fast(), train};
  cnn.set_parallelism(emoleak::util::Parallelism{.threads = threads});
  cnn.fit(data);
  std::vector<double> out;
  for (const std::vector<double>& row : data.x) {
    const std::vector<double> p = cnn.predict_proba(row);
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

TEST(CnnClassifierTest, FitIsBitIdenticalAtAnyThreadCount) {
  // Conv2D training fans batches out over the pool; the trained model
  // must not depend on the thread count, for either architecture.
  using Arch = emoleak::nn::CnnClassifier::Arch;
  const ExtractedData data = small_capture(0.06);
  emoleak::ml::Dataset images;
  images.x = data.spectrograms;
  images.y = data.features.y;
  images.class_count = data.features.class_count;
  const std::pair<Arch, const emoleak::ml::Dataset*> heads[] = {
      {Arch::kTimefreq, &data.features}, {Arch::kSpectrogram, &images}};
  for (const auto& [arch, set] : heads) {
    const std::vector<double> serial = cnn_train_probabilities(arch, *set, 1);
    ASSERT_EQ(serial.size(),
              set->size() * static_cast<std::size_t>(set->class_count));
    for (const std::size_t threads : {2, 4}) {
      const std::vector<double> parallel =
          cnn_train_probabilities(arch, *set, threads);
      ASSERT_EQ(parallel.size(), serial.size());
      EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                            serial.size() * sizeof(double)),
                0)
          << "arch=" << static_cast<int>(arch) << " threads=" << threads;
    }
  }
}

// FNV-1a-64 over the object bytes of a sequence of doubles: a compact
// fingerprint of every output bit.
std::uint64_t fnv1a64(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : xs) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Golden digests pin the trained CNNs across commits, not only across
// thread counts within one process: a change to the layers, the GEMM,
// Adam or the training loop that moves any probability bit fails here.
// Each head trains two epochs at batch 32 on a fixed capture whose
// training split leaves a partial last batch, then scores every row
// one at a time and all rows in one batched call. The constants hold
// for this toolchain and libm: the capture calls sin, log and sqrt,
// He init sqrt, Adam pow and sqrt, and the softmax exp and log. A
// change that means to move bits re-pins them and says so.
TEST(CnnClassifierTest, GoldenDigestsPinTrainedModels) {
  using Arch = emoleak::nn::CnnClassifier::Arch;
  const ExtractedData data = small_capture(0.06);
  emoleak::ml::Dataset images;
  images.x = data.spectrograms;
  images.y = data.features.y;
  images.class_count = data.features.class_count;

  emoleak::nn::TrainConfig train;
  train.epochs = 2;
  train.batch_size = 32;
  // Sequential::train's stratified carve: floor(fraction * count) of
  // each class validates, the rest trains.
  std::vector<std::size_t> per_class(
      static_cast<std::size_t>(data.features.class_count));
  for (const int y : data.features.y) ++per_class[static_cast<std::size_t>(y)];
  std::size_t train_rows = 0;
  for (const std::size_t c : per_class) {
    train_rows += c - static_cast<std::size_t>(train.validation_fraction *
                                               static_cast<double>(c));
  }
  ASSERT_NE(train_rows % train.batch_size, 0u) << "train_rows=" << train_rows;

  struct Golden {
    Arch arch;
    const emoleak::ml::Dataset* set;
    std::uint64_t digest;
  };
  for (const Golden g : {
           Golden{Arch::kTimefreq, &data.features, 0x05e35a57eac6f8fbULL},
           Golden{Arch::kSpectrogram, &images, 0x22952a08ccc9b014ULL},
       }) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      emoleak::nn::CnnClassifier cnn{g.arch, g.set->dim(),
                                     emoleak::nn::CnnConfig::fast(), train};
      cnn.set_parallelism(emoleak::util::Parallelism{.threads = threads});
      cnn.fit(*g.set);
      std::vector<double> rows;
      std::vector<double> single;
      for (const std::vector<double>& row : g.set->x) {
        rows.insert(rows.end(), row.begin(), row.end());
        const std::vector<double> p = cnn.predict_proba(row);
        single.insert(single.end(), p.begin(), p.end());
      }
      const std::vector<double> batched =
          cnn.predict_proba_batch(rows, g.set->dim(), g.set->size());
      const std::uint64_t digest = fnv1a64(single);
      EXPECT_EQ(digest, g.digest)
          << "arch=" << static_cast<int>(g.arch) << " threads=" << threads
          << " digest=0x" << std::hex << digest;
      ASSERT_EQ(batched.size(), single.size());
      EXPECT_EQ(std::memcmp(batched.data(), single.data(),
                            single.size() * sizeof(double)),
                0)
          << "arch=" << static_cast<int>(g.arch) << " threads=" << threads;
    }
  }
}

TEST(CnnClassifierTest, ZeroRowBatchIsEmpty) {
  // Like ml::Classifier's default: no rows in, no probabilities out
  // (the zero batch used to reach Flatten's division by the batch size).
  const ExtractedData data = small_capture(0.04);
  emoleak::nn::TrainConfig train;
  train.epochs = 1;
  emoleak::nn::CnnClassifier cnn{emoleak::nn::CnnClassifier::Arch::kTimefreq,
                                 data.features.dim(),
                                 emoleak::nn::CnnConfig::fast(), train};
  cnn.fit(data.features);
  EXPECT_TRUE(cnn.predict_proba_batch({}, data.features.dim(), 0).empty());
}

}  // namespace
