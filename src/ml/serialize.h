// Model serialization.
//
// The EmoLeak threat model (paper §III-A) separates offline training
// (attacker replays corpora on an identical device) from online
// deployment (the exfiltrated sensor data is classified later). These
// routines persist trained models in a small self-describing text
// format so the two phases can run in different processes.
#pragma once

#include <cstddef>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace emoleak::ml {

/// Serializes a trained LogisticRegression, OneVsRestLogistic,
/// DecisionTree, RandomForest, RandomSubspace or LogisticModelTree.
/// Throws util::DataError for unsupported classifiers or untrained
/// models.
void save_model(std::ostream& out, const Classifier& model);

/// Reconstructs a model previously written by save_model. The returned
/// classifier predicts identically to the saved one.
[[nodiscard]] std::unique_ptr<Classifier> load_model(std::istream& in);

/// File-path conveniences.
void save_model_file(const std::string& path, const Classifier& model);
[[nodiscard]] std::unique_ptr<Classifier> load_model_file(
    const std::string& path);

namespace detail {

// Hard ceilings on counts parsed from model streams. Model files are
// untrusted input in the serving threat model (an implant loads
// whatever the operator ships), so any count beyond these limits is a
// malformed file, and deserialize must reject it with util::DataError
// *before* allocating — never crash on bad_alloc or (worse) mis-load.
// Within the caps, containers grow as values are read (read_values), so
// a short file cannot make the loader allocate for a count it claims.
inline constexpr std::size_t kMaxClasses = 4096;
inline constexpr std::size_t kMaxDim = std::size_t{1} << 20;
inline constexpr std::size_t kMaxNodes = std::size_t{1} << 22;
inline constexpr std::size_t kMaxEnsemble = std::size_t{1} << 16;

/// Throws util::DataError unless value ∈ [1, max]. Note that reading a
/// negative token into an unsigned via operator>> wraps instead of
/// failing, so the upper bound is the only thing standing between a
/// "-1" in the file and a 2^64-element allocation.
void check_count(std::size_t value, std::size_t max, const char* what);

/// Appends up to `count` values read from `in` to `out`, one at a time,
/// so `out` grows only with values the stream actually holds. Stops at
/// the first failed read, leaving `in` failed.
template <typename T>
void read_values(std::istream& in, std::size_t count, std::vector<T>& out) {
  T value{};
  for (std::size_t i = 0; i < count && in >> value; ++i) out.push_back(value);
}

}  // namespace detail

}  // namespace emoleak::ml
