// Tests for model serialization (ml/serialize.h): every supported
// classifier must round-trip to identical predictions, and malformed
// or mutated model files must fail with util::DataError, never a crash
// or an oversized allocation.
#include "ml/serialize.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>

#include "ml/ensemble.h"
#include "ml/lmt.h"
#include "ml/logistic.h"
#include "ml/multiclass.h"
#include "ml/tree.h"
#include "util/error.h"
#include "util/rng.h"

// The largest single operator-new request since the last reset: the
// mutation test checks that no decoder allocates past what its count
// caps allow. Both functions stay out of line, so the compiler never
// pairs an inlined malloc with a free it cannot match.
std::atomic<std::size_t> g_largest_allocation{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace emoleak::ml;
using emoleak::util::Rng;

Dataset blobs(std::size_t per_class, int classes, std::uint64_t seed) {
  Rng rng{seed};
  Dataset d;
  d.class_count = classes;
  for (int c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      d.x.push_back({1.8 * c + 0.7 * rng.normal(),
                     -1.2 * c + 0.7 * rng.normal(),
                     rng.normal()});
      d.y.push_back(c);
    }
  }
  return d;
}

/// Round-trips `model` through save/load and checks that predictions
/// and probability vectors are bit-identical on every row of `probe`
/// (the serving layer's hot-swap contract: a reloaded model is
/// indistinguishable from the one it replaced).
void expect_roundtrip(Classifier& model, const Dataset& probe) {
  std::stringstream buffer;
  save_model(buffer, model);
  const std::unique_ptr<Classifier> loaded = load_model(buffer);
  ASSERT_EQ(loaded->name(), model.name());
  for (const auto& row : probe.x) {
    EXPECT_EQ(loaded->predict(row), model.predict(row));
    const auto pa = model.predict_proba(row);
    const auto pb = loaded->predict_proba(row);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_EQ(pa[c], pb[c]);  // exact: setprecision(17) round-trips
    }
  }
}

/// A full model file with the given classifier name and payload.
std::string model_file(const std::string& name, const std::string& payload) {
  return "emoleak-model-v1\n" + name + "\n" + payload;
}

void expect_rejected(const std::string& contents) {
  std::stringstream buffer{contents};
  EXPECT_THROW((void)load_model(buffer), emoleak::util::DataError);
}

TEST(SerializeTest, LogisticRoundTrips) {
  const Dataset d = blobs(40, 3, 1);
  LogisticRegression model;
  model.fit(d);
  expect_roundtrip(model, d);
}

TEST(SerializeTest, OneVsRestRoundTrips) {
  const Dataset d = blobs(30, 4, 2);
  OneVsRestLogistic model;
  model.fit(d);
  expect_roundtrip(model, d);
}

TEST(SerializeTest, DecisionTreeRoundTrips) {
  const Dataset d = blobs(40, 3, 3);
  DecisionTree model;
  model.fit(d);
  expect_roundtrip(model, d);
}

TEST(SerializeTest, RandomForestRoundTrips) {
  const Dataset d = blobs(30, 3, 4);
  RandomForestConfig cfg;
  cfg.tree_count = 12;
  RandomForest model{cfg};
  model.fit(d);
  expect_roundtrip(model, d);
}

TEST(SerializeTest, RandomSubspaceRoundTrips) {
  const Dataset d = blobs(30, 3, 5);
  RandomSubspaceConfig cfg;
  cfg.ensemble_size = 8;
  RandomSubspace model{cfg};
  model.fit(d);
  expect_roundtrip(model, d);
}

TEST(SerializeTest, LmtRoundTrips) {
  const Dataset d = blobs(60, 3, 6);
  LogisticModelTree model;
  model.fit(d);
  expect_roundtrip(model, d);
}

TEST(SerializeTest, UntrainedModelThrows) {
  std::stringstream buffer;
  const LogisticRegression model;
  EXPECT_THROW(save_model(buffer, model), emoleak::util::DataError);
}

TEST(SerializeTest, BadHeaderThrows) {
  std::stringstream buffer{"not-a-model Logistic"};
  EXPECT_THROW((void)load_model(buffer), emoleak::util::DataError);
}

TEST(SerializeTest, UnknownClassifierThrows) {
  std::stringstream buffer{"emoleak-model-v1\nQuantumSvm\n"};
  EXPECT_THROW((void)load_model(buffer), emoleak::util::DataError);
}

TEST(SerializeTest, TruncatedPayloadThrows) {
  const Dataset d = blobs(20, 2, 7);
  LogisticRegression model;
  model.fit(d);
  std::stringstream buffer;
  save_model(buffer, model);
  std::stringstream cut{buffer.str().substr(0, buffer.str().size() / 2)};
  EXPECT_THROW((void)load_model(cut), emoleak::util::DataError);
}

// ---- malformed payloads ----------------------------------------------
//
// A model file is untrusted input to the serving layer (ModelRegistry
// warm-loads whatever the operator points it at), so every parse
// failure must surface as util::DataError — never a crash, hang, or a
// silently mis-loaded model. `operator>>` into an unsigned count WRAPS
// on negative input without setting failbit, so the upper-bound caps in
// ml/serialize.h are the only defense against huge allocations.

TEST(SerializeTest, HugeCountsRejectedBeforeAllocation) {
  // 2^64 - 1 elements would be a ~147 EB allocation if attempted.
  expect_rejected(model_file("Logistic", "3 18446744073709551615\n"));
  expect_rejected(model_file("DecisionTree", "3 99999999999 1\n"));
  expect_rejected(model_file("RandomForest", "3 18446744073709551615\n"));
}

TEST(SerializeTest, NegativeCountsRejected) {
  // -7 wraps to 2^64 - 7 in the unsigned dim; the cap must catch it.
  expect_rejected(model_file("Logistic", "3 -7\n"));
  expect_rejected(model_file("DecisionTree", "3 -1 1\n"));
  expect_rejected(model_file("RandomSubSpace", "3 -2\n"));
}

TEST(SerializeTest, TreeChildIndexOutOfRangeRejected) {
  // Node 0 is internal with left = 5, but only 3 nodes exist: route()
  // would index past the node array.
  expect_rejected(model_file("DecisionTree",
                             "2 3 2\n"
                             "0 0.5 5 2 0 0\n"
                             "0 0 -1 -1 0 2 0.5 0.5\n"
                             "0 0 -1 -1 1 2 0.5 0.5\n"));
}

TEST(SerializeTest, TreeBackwardChildIndexRejected) {
  // Node 1 points back at node 0: a cycle, so route() would never
  // terminate. Children must be strictly after their parent (the
  // builder's append-order invariant doubles as the acyclicity proof).
  expect_rejected(model_file("DecisionTree",
                             "2 3 2\n"
                             "0 0.5 1 2 0 0\n"
                             "0 0.5 0 2 0 0\n"
                             "0 0 -1 -1 0 2 0.5 0.5\n"));
}

TEST(SerializeTest, TreeLeafDistributionMismatchRejected) {
  // Leaf carries 1 probability for a 2-class tree: predict_proba would
  // hand the caller a wrong-sized distribution.
  expect_rejected(model_file("DecisionTree", "2 1 1\n0 0 -1 -1 0 1 1.0\n"));
}

TEST(SerializeTest, TreeLeafIdOutOfRangeRejected) {
  expect_rejected(
      model_file("DecisionTree", "2 1 1\n0 0 -1 -1 5 2 0.5 0.5\n"));
}

TEST(SerializeTest, ForestTreeClassMismatchRejected) {
  // A 2-class tree inside a 3-class forest: the vote accumulator would
  // be read out of bounds.
  expect_rejected(model_file("RandomForest",
                             "3 1\n"
                             "2 1 1\n0 0 -1 -1 0 2 0.5 0.5\n"));
}

TEST(SerializeTest, SubspaceColumnOutOfRangeRejected) {
  // Column index beyond any plausible feature dimension.
  expect_rejected(model_file("RandomSubSpace",
                             "2 1\n"
                             "1 99999999999\n"
                             "2 1 1\n0 0 -1 -1 0 2 0.5 0.5\n"));
}

TEST(SerializeTest, OneVsRestNonBinaryMemberRejected) {
  // Found by ModelMutantTest: a one-class member loaded, and
  // predict_proba then read its class-1 probability past the end of a
  // one-element distribution.
  const std::string one_class = "1 1\n0 \n1 \n0.5 0.5 \n";
  expect_rejected(model_file("multiClassClassifier", "2\n" + one_class +
                                                         one_class));
}

TEST(SerializeTest, LmtLeafModelClassMismatchRejected) {
  // A 3-class leaf model in a 2-class tree would hand the caller a
  // distribution of the wrong size.
  expect_rejected(model_file("trees.lmt",
                             "2 1\n"
                             "2 1 1\n0 0 -1 -1 0 2 0.5 0.5\n"
                             "1\n3 1\n0 \n1 \n0 0 0 0 0 0 \n"));
}

TEST(SerializeTest, BadScalerStddevRejected) {
  // Zero stddev would divide by zero on every later predict.
  expect_rejected(model_file("Logistic", "2 1\n0.0 \n0.0 \n1 2 3 4 \n"));
}

TEST(SerializeTest, NonFiniteWeightRejected) {
  expect_rejected(model_file("Logistic", "2 1\n0.0 \n1.0 \n1 nan 3 4 \n"));
}

TEST(SerializeTest, LoadedTreeGuardsNarrowRows) {
  // A deserialized tree must reject a row narrower than its split
  // features at predict time instead of reading past the row.
  const Dataset d = blobs(40, 3, 9);
  DecisionTree model;
  model.fit(d);
  std::stringstream buffer;
  save_model(buffer, model);
  const auto loaded = load_model(buffer);
  const std::vector<double> empty;
  EXPECT_THROW((void)loaded->predict(empty), emoleak::util::DataError);
}

// ---- seeded mutants ---------------------------------------------------

/// One saved model of every kind load_model knows, small enough that a
/// mutant decodes in microseconds.
std::vector<std::string> seed_models() {
  const Dataset d = blobs(12, 3, 21);
  std::vector<std::unique_ptr<Classifier>> models;
  models.push_back(std::make_unique<LogisticRegression>());
  models.push_back(std::make_unique<OneVsRestLogistic>());
  models.push_back(std::make_unique<DecisionTree>());
  RandomForestConfig forest;
  forest.tree_count = 3;
  models.push_back(std::make_unique<RandomForest>(forest));
  RandomSubspaceConfig subspace;
  subspace.ensemble_size = 3;
  models.push_back(std::make_unique<RandomSubspace>(subspace));
  models.push_back(std::make_unique<LogisticModelTree>());
  std::vector<std::string> seeds;
  for (const auto& model : models) {
    model->fit(d);
    std::stringstream out;
    save_model(out, *model);
    seeds.push_back(out.str());
  }
  return seeds;
}

/// One to three edits of a random seed: bit flips, count edits (a
/// whitespace-separated token replaced by a boundary value), truncation,
/// and splices with another seed.
std::string mutate_model(const std::vector<std::string>& seeds, Rng& rng) {
  std::string text = seeds[rng.uniform_int(seeds.size())];
  const std::uint64_t edits = 1 + rng.uniform_int(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.uniform_int(4)) {
      case 0:
        if (!text.empty()) {
          text[rng.uniform_int(text.size())] ^=
              static_cast<char>(1u << rng.uniform_int(8));
        }
        break;
      case 1: {
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < text.size(); ++i) {
          const bool space = std::isspace(static_cast<unsigned char>(text[i]));
          if (!space && (i == 0 || std::isspace(static_cast<unsigned char>(
                                       text[i - 1])))) {
            starts.push_back(i);
          }
        }
        if (starts.empty()) break;
        const std::size_t at = starts[rng.uniform_int(starts.size())];
        std::size_t end = at;
        while (end < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[end]))) {
          ++end;
        }
        const std::string values[] = {
            "0", "1", "2", "-1", "-7", "4097", "1048577", "4194305",
            "65537", "18446744073709551615", "99999999999", "nan", "inf",
            "1e308", std::to_string(rng.uniform_int(64))};
        text.replace(at, end - at, values[rng.uniform_int(std::size(values))]);
        break;
      }
      case 2:
        text.resize(rng.uniform_int(text.size() + 1));
        break;
      default: {
        const std::string& other = seeds[rng.uniform_int(seeds.size())];
        text = text.substr(0, rng.uniform_int(text.size() + 1)) +
               other.substr(rng.uniform_int(other.size() + 1));
        break;
      }
    }
  }
  return text;
}

// Every mutant of every model kind either loads or raises
// util::DataError: no other exception, no crash or undefined behaviour
// (the test runs under ASan and UBSan), and no allocation out of
// proportion to the mutant: the decoders grow their containers as
// values are read, and every value takes at least two bytes of text,
// so no single request exceeds 16 bytes per input byte (a doubled
// vector of 56-byte tree nodes, each at least 12 bytes long, stays
// under 10), plus room for an error message.
TEST(ModelMutantTest, SeededMutantsLoadOrRaiseDataError) {
  const std::vector<std::string> seeds = seed_models();
  ASSERT_EQ(seeds.size(), 6u);
  Rng rng{0x10AD};
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    const std::string mutant = mutate_model(seeds, rng);
    const std::size_t ceiling = 16 * mutant.size() + 1024;
    std::unique_ptr<Classifier> model;
    g_largest_allocation.store(0, std::memory_order_relaxed);
    try {
      std::stringstream in{mutant};
      model = load_model(in);
    } catch (const emoleak::util::DataError&) {
      ++rejected;
    }
    EXPECT_LE(g_largest_allocation.load(std::memory_order_relaxed), ceiling);
    if (!model) continue;
    ++loaded;
    // A model that loads is safe to use: a predict either returns a
    // distribution or refuses the row.
    try {
      EXPECT_FALSE(model->predict_proba(std::vector<double>{0.5, -0.25, 1.0})
                       .empty());
    } catch (const emoleak::util::DataError&) {
    }
    // And it saves to a file that loads back and saves identically.
    std::stringstream once;
    save_model(once, *model);
    std::stringstream again;
    save_model(again, *load_model(once));
    EXPECT_EQ(again.str(), once.str());
  }
  // The mutants reach both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(SerializeTest, FileRoundTrip) {
  const Dataset d = blobs(20, 2, 8);
  LogisticRegression model;
  model.fit(d);
  const std::string path = "/tmp/emoleak_test_model.txt";
  save_model_file(path, model);
  const auto loaded = load_model_file(path);
  for (const auto& row : d.x) {
    EXPECT_EQ(loaded->predict(row), model.predict(row));
  }
}

}  // namespace
