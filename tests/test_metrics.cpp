// Tests for extended metrics (ml/metrics.h).
#include "ml/metrics.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace {

using emoleak::ml::classification_report;
using emoleak::ml::cohens_kappa;
using emoleak::ml::ConfusionMatrix;
using emoleak::ml::matthews_corrcoef;

ConfusionMatrix perfect(int classes, int per_class) {
  ConfusionMatrix cm{classes};
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < per_class; ++i) cm.add(c, c);
  }
  return cm;
}

ConfusionMatrix random_preds(int classes, int n, std::uint64_t seed) {
  emoleak::util::Rng rng{seed};
  ConfusionMatrix cm{classes};
  for (int i = 0; i < n; ++i) {
    cm.add(static_cast<int>(rng.uniform_int(classes)),
           static_cast<int>(rng.uniform_int(classes)));
  }
  return cm;
}

TEST(KappaTest, PerfectClassifierIsOne) {
  EXPECT_NEAR(cohens_kappa(perfect(4, 10)), 1.0, 1e-12);
}

TEST(KappaTest, RandomClassifierNearZero) {
  EXPECT_NEAR(cohens_kappa(random_preds(5, 20000, 1)), 0.0, 0.02);
}

TEST(KappaTest, EmptyMatrixIsZero) {
  EXPECT_DOUBLE_EQ(cohens_kappa(ConfusionMatrix{3}), 0.0);
}

TEST(KappaTest, KnownTwoClassValue) {
  // Classic textbook example: 20 TP, 5 FN, 10 FP, 15 TN.
  ConfusionMatrix cm{2};
  for (int i = 0; i < 20; ++i) cm.add(0, 0);
  for (int i = 0; i < 5; ++i) cm.add(0, 1);
  for (int i = 0; i < 10; ++i) cm.add(1, 0);
  for (int i = 0; i < 15; ++i) cm.add(1, 1);
  // po = 35/50 = 0.7; pe = (25*30 + 25*20)/2500 = 0.5; kappa = 0.4.
  EXPECT_NEAR(cohens_kappa(cm), 0.4, 1e-12);
}

TEST(MatthewsTest, PerfectIsOneRandomIsZero) {
  EXPECT_NEAR(matthews_corrcoef(perfect(3, 20)), 1.0, 1e-12);
  EXPECT_NEAR(matthews_corrcoef(random_preds(3, 20000, 3)), 0.0, 0.02);
}

TEST(MatthewsTest, InvertedClassifierNegative) {
  ConfusionMatrix cm{2};
  for (int i = 0; i < 20; ++i) cm.add(0, 1);
  for (int i = 0; i < 20; ++i) cm.add(1, 0);
  EXPECT_NEAR(matthews_corrcoef(cm), -1.0, 1e-12);
}

TEST(ReportTest, ContainsClassesAndSummary) {
  const ConfusionMatrix cm = perfect(2, 5);
  const std::string report = classification_report(cm, {"cat", "dog"});
  EXPECT_NE(report.find("cat"), std::string::npos);
  EXPECT_NE(report.find("dog"), std::string::npos);
  EXPECT_NE(report.find("accuracy"), std::string::npos);
  EXPECT_NE(report.find("Cohen's kappa"), std::string::npos);
  EXPECT_NE(report.find("1.000"), std::string::npos);
}

}  // namespace
