#include "ml/tree.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <cmath>
#include <numeric>
#include <string>

#include "ml/serialize.h"
#include "util/error.h"
#include "util/workspace.h"

namespace emoleak::ml {

namespace {

// Split scoring works on integer sums of squared class counts, which
// the scan maintains incrementally (moving one sample of class c from
// right to left changes each sum by 2·count±1) instead of re-walking
// the class histogram per candidate cut. From
// gini = 1 - Σ(c/total)² = 1 - (Σc²)/total², the weighted child score
//
//   (n_l·g_l + n_r·g_r) / count = 1 - (S_l/n_l + S_r/n_r) / count
//
// so *minimizing* the score with the 1e-12 improvement epsilon is
// *maximizing* the purity metric S_l/n_l + S_r/n_r against an epsilon
// pre-scaled by count, with the parent seeded at S/count. A node is
// pure exactly when S == count² (exact in integers). Sums of squares
// fit std::uint64_t for totals below 2^31.

std::uint64_t squared_count_sum(std::span<const std::size_t> counts) {
  std::uint64_t s = 0;
  for (const std::size_t c : counts) {
    s += static_cast<std::uint64_t>(c) * static_cast<std::uint64_t>(c);
  }
  return s;
}

double split_metric(std::uint64_t left_sq, std::size_t n_left,
                    std::uint64_t right_sq, std::size_t n_right) {
  return static_cast<double>(left_sq) / static_cast<double>(n_left) +
         static_cast<double>(right_sq) / static_cast<double>(n_right);
}

// Division-free prefilter for `split_metric(...) > threshold`: scale
// both sides by n_left * n_right (all positive) so the test becomes
// S_l*n_r + S_r*n_l > threshold * n_l * n_r, which is three multiplies
// instead of two divides — the divides dominate the split scan since
// nearly every candidate boundary loses to the incumbent. The relative
// rounding error of the multiplied form is a few ulp (~1e-15), so
// widening the right side by 1e-9 makes the filter strictly
// conservative: everything it rejects is a true reject, and the caller
// re-checks survivors with the exact division form, keeping accept
// decisions bit-identical to split_metric.
bool split_metric_may_beat(std::uint64_t left_sq, std::size_t n_left,
                           std::uint64_t right_sq, std::size_t n_right,
                           double threshold) {
  const auto nl = static_cast<double>(n_left);
  const auto nr = static_cast<double>(n_right);
  const double lhs =
      static_cast<double>(left_sq) * nr + static_cast<double>(right_sq) * nl;
  return lhs >= threshold * (nl * nr) * (1.0 - 1e-9);
}

}  // namespace

// All per-fit scratch, taken from the calling thread's Workspace once
// per fit_indices call.
struct DecisionTree::BuildScratch {
  std::size_t n = 0;    ///< rows in the fitting index set (with repeats)
  std::size_t dim = 0;  ///< feature count

  // Shared per-node buffers (reused; reinitialized at each node).
  std::span<std::size_t> class_counts;
  std::span<std::size_t> left_counts;
  std::span<std::size_t> right_counts;
  std::span<std::size_t> features;  ///< candidate ids, re-iota'd per node

  // Presort path. `order` holds dim arrays of n bag positions, each
  // sorted by that feature's value; every node owns the same
  // [begin, end) window in all of them. `values` is the column-major
  // feature matrix (values[f*n + pos]) so sorting and scanning touch
  // contiguous-ish memory instead of re-gathering rows.
  std::span<double> values;          ///< dim * n, column-major
  std::span<int> pos_class;          ///< position -> label
  std::span<std::uint32_t> order;    ///< dim * n sorted positions
  std::span<std::uint32_t> tmp;      ///< partition spill buffer (n)
  std::span<unsigned char> go_left;  ///< split mask by position (n)

  // Binned path: one array of dataset row ids (bag repeats allowed),
  // partitioned in place down the tree, with no per-feature order to
  // maintain. `bin_total`/`touched`/`bin_start`/`scatter` serve the
  // scorer, a per-candidate counting sort by code. bin_total stays
  // all-zero between candidates: the scorer re-zeroes exactly the codes
  // it touched, and a 256-bit set yields those codes already sorted. So
  // scoring a candidate in a node of c rows over d distinct codes costs
  // O(c + d), not O(max_bins x classes). That matters because deep CART
  // trees are mostly tiny nodes.
  std::span<std::uint32_t> positions;  ///< n dataset row ids
  std::span<std::uint32_t> spill;      ///< partition spill buffer (n)
  std::span<int> labels;               ///< n labels, partitioned alongside
  std::span<std::uint32_t> bin_total;  ///< 256 counts/cursors, kept zeroed
  std::span<std::uint8_t> touched;     ///< codes seen by current candidate
  std::span<std::uint32_t> bin_start;  ///< 257 prefix sums over touched
  std::span<std::uint16_t> scatter;    ///< n labels in code order
};

namespace {

// NaN has no place in a value order: with one in a column, the sort
// comparators below stop being strict weak orderings (std::sort is then
// undefined) and the binner would emit NaN thresholds. Dataset::validate
// accepts NaN, so every induction entry point rejects it here.
void reject_nan(const Dataset& data, const char* who) {
  for (const std::vector<double>& row : data.x) {
    bool nan = false;
    for (const double v : row) nan |= std::isnan(v);
    if (nan) throw util::DataError{std::string{who} + ": NaN feature value"};
  }
}

// Order-preserving u64 key for a double: flips the sign bit for
// non-negatives and all bits for negatives, so unsigned key order equals
// double order. -0.0 is normalised to +0.0 first so equal doubles always
// produce equal keys (the binner detects runs by key equality).
std::uint64_t ordered_key(double v) {
  if (v == 0.0) v = 0.0;
  std::uint64_t k;
  std::memcpy(&k, &v, sizeof(k));
  return (k >> 63) != 0 ? ~k : (k | (std::uint64_t{1} << 63));
}

double key_value(std::uint64_t k) {
  k = (k >> 63) != 0 ? (k & ~(std::uint64_t{1} << 63)) : ~k;
  double v;
  std::memcpy(&v, &k, sizeof(v));
  return v;
}

// LSD radix sort of parallel (key, row) arrays, 8-bit digits. One
// pre-scan histograms all eight digit positions so constant digits
// (common in the exponent bytes of real-world features) cost nothing.
// ~3.5x faster than std::sort on (double, row) pairs at the dataset
// sizes the binner sees, and the row payload keeps ties stable.
void radix_sort_keys(std::uint64_t* keys, std::uint32_t* rows, std::size_t n,
                     std::uint64_t* tmp_keys, std::uint32_t* tmp_rows) {
  std::uint32_t counts[8][256];
  std::memset(counts, 0, sizeof(counts));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    for (int p = 0; p < 8; ++p) ++counts[p][(k >> (p * 8)) & 0xFF];
  }
  std::uint64_t* a = keys;
  std::uint64_t* b = tmp_keys;
  std::uint32_t* ra = rows;
  std::uint32_t* rb = tmp_rows;
  for (int p = 0; p < 8; ++p) {
    std::uint32_t* c = counts[p];
    bool trivial = false;
    for (int d = 0; d < 256; ++d) {
      if (c[d] == n) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;
    std::uint32_t acc = 0;
    for (int d = 0; d < 256; ++d) {
      const std::uint32_t cnt = c[d];
      c[d] = acc;
      acc += cnt;
    }
    const int shift = p * 8;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = a[i];
      const std::uint32_t dst = c[(k >> shift) & 0xFF]++;
      b[dst] = k;
      rb[dst] = ra[i];
    }
    std::swap(a, b);
    std::swap(ra, rb);
  }
  if (a != keys) {
    std::memcpy(keys, a, n * sizeof(*keys));
    std::memcpy(rows, ra, n * sizeof(*rows));
  }
}

}  // namespace

PresortedColumns PresortedColumns::build(const Dataset& data) {
  data.validate();
  reject_nan(data, "PresortedColumns");
  PresortedColumns p;
  p.n_ = data.size();
  p.dim_ = data.dim();
  if (p.n_ > std::numeric_limits<std::uint32_t>::max()) {
    throw util::DataError{"PresortedColumns: dataset too large"};
  }
  p.order_.resize(p.dim_ * p.n_);
  std::vector<double> col(p.n_);
  for (std::size_t f = 0; f < p.dim_; ++f) {
    for (std::size_t i = 0; i < p.n_; ++i) col[i] = data.x[i][f];
    const std::span<std::uint32_t> ord{p.order_.data() + f * p.n_, p.n_};
    std::iota(ord.begin(), ord.end(), std::uint32_t{0});
    std::sort(ord.begin(), ord.end(),
              [&col](std::uint32_t a, std::uint32_t b) {
                return col[a] != col[b] ? col[a] < col[b] : a < b;
              });
  }
  return p;
}

BinnedColumns BinnedColumns::build(const Dataset& data, std::size_t max_bins) {
  data.validate();
  reject_nan(data, "BinnedColumns");
  BinnedColumns b;
  b.n_ = data.size();
  b.dim_ = data.dim();
  if (b.n_ > std::numeric_limits<std::uint32_t>::max()) {
    throw util::DataError{"BinnedColumns: dataset too large"};
  }
  max_bins = std::clamp<std::size_t>(max_bins, 2, 256);
  b.codes_.resize(b.dim_ * b.n_);
  b.lower_.assign(b.dim_ * 256, 0.0);
  b.upper_.assign(b.dim_ * 256, 0.0);

  std::vector<std::uint64_t> keys(b.n_), tmp_keys(b.n_);
  std::vector<std::uint32_t> rows(b.n_), tmp_rows(b.n_);
  for (std::size_t f = 0; f < b.dim_; ++f) {
    for (std::size_t i = 0; i < b.n_; ++i) {
      keys[i] = ordered_key(data.x[i][f]);
      rows[i] = static_cast<std::uint32_t>(i);
    }
    radix_sort_keys(keys.data(), rows.data(), b.n_, tmp_keys.data(),
                    tmp_rows.data());

    std::size_t distinct = b.n_ == 0 ? 0 : 1;
    for (std::size_t i = 1; i < b.n_; ++i) {
      distinct += keys[i] != keys[i - 1] ? 1 : 0;
    }

    // One bin per distinct value when they fit (the parity regime);
    // otherwise greedy equal-frequency: close the open bin once it
    // reaches ceil(remaining rows / remaining bins), re-targeting after
    // oversized runs, never splitting a run of equal values.
    const bool per_value = distinct <= max_bins;
    std::uint8_t* codes = b.codes_.data() + f * b.n_;
    double* lower = b.lower_.data() + f * 256;
    double* upper = b.upper_.data() + f * 256;
    std::size_t bin = 0;
    std::size_t acc = 0;
    std::size_t remaining = b.n_;
    std::size_t i = 0;
    while (i < b.n_) {
      std::size_t j = i;
      while (j < b.n_ && keys[j] == keys[i]) ++j;
      const std::size_t run = j - i;
      const double value = key_value(keys[i]);
      if (acc == 0) lower[bin] = value;
      upper[bin] = value;
      for (std::size_t k = i; k < j; ++k) {
        codes[rows[k]] = static_cast<std::uint8_t>(bin);
      }
      acc += run;
      remaining -= run;
      if (remaining > 0) {
        const std::size_t bins_left = max_bins - bin - 1;
        const std::size_t target =
            bins_left > 0 ? (remaining + acc + bins_left) / (bins_left + 1) : 0;
        if (per_value || (bins_left > 0 && acc >= target)) {
          ++bin;
          acc = 0;
        }
      }
      i = j;
    }
  }
  return b;
}

void DecisionTree::fit(const Dataset& data) {
  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  fit_indices(data, indices);
}

void DecisionTree::fit_indices(const Dataset& data,
                               std::span<const std::size_t> indices,
                               const PresortedColumns* presorted,
                               const BinnedColumns* binned) {
  data.validate();
  reject_nan(data, "DecisionTree");
  if (indices.empty()) throw util::DataError{"DecisionTree: empty index set"};
  for (const std::size_t row : indices) {
    if (row >= data.size()) {
      throw util::DataError{"DecisionTree: index out of range"};
    }
  }
  // Both induction paths index bag positions and dataset rows as u32.
  if (indices.size() > std::numeric_limits<std::uint32_t>::max() ||
      data.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw util::DataError{"DecisionTree: 2^32 or more rows"};
  }
  classes_ = data.class_count;
  nodes_.clear();
  leaf_count_ = 0;
  util::Rng rng{config_.seed};

  const std::size_t n = indices.size();
  const std::size_t dim = data.dim();
  util::Workspace& ws = util::thread_workspace();
  const util::Workspace::Scope scope{ws};

  BuildScratch scratch;
  scratch.n = n;
  scratch.dim = dim;
  const auto classes = static_cast<std::size_t>(classes_);
  scratch.class_counts = ws.take<std::size_t>(classes);
  scratch.left_counts = ws.take<std::size_t>(classes);
  scratch.right_counts = ws.take<std::size_t>(classes);
  scratch.features = ws.take<std::size_t>(dim);

  if (dim == 0) {
    // Nothing to split on: one leaf holding the class distribution.
    std::fill(scratch.class_counts.begin(), scratch.class_counts.end(),
              std::size_t{0});
    for (const std::size_t row : indices) {
      ++scratch.class_counts[static_cast<std::size_t>(data.y[row])];
    }
    make_leaf(scratch.class_counts, n);
    return;
  }

  if (!config_.exact && classes <= 0xFFFF) {
    // Binned induction. The binner is per-dataset (like the
    // shared presort), so a forest builds it once; a lone tree builds
    // its own.
    std::optional<BinnedColumns> local;
    const bool shared_usable = binned != nullptr &&
                               binned->rows() == data.size() &&
                               binned->dims() == dim;
    if (!shared_usable) {
      local.emplace(BinnedColumns::build(data, config_.max_bins));
      binned = &*local;
    }
    scratch.positions = ws.take<std::uint32_t>(n);
    scratch.spill = ws.take<std::uint32_t>(n);
    scratch.labels = ws.take<int>(n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      scratch.positions[pos] = static_cast<std::uint32_t>(indices[pos]);
      scratch.labels[pos] = data.y[indices[pos]];
    }
    scratch.bin_total = ws.take<std::uint32_t>(256);
    scratch.touched = ws.take<std::uint8_t>(256);
    scratch.bin_start = ws.take<std::uint32_t>(257);
    scratch.scatter = ws.take<std::uint16_t>(n);
    std::fill(scratch.bin_total.begin(), scratch.bin_total.end(),
              std::uint32_t{0});
    build_binned(data, *binned, scratch, 0, n, 0, rng);
    return;
  }

  scratch.values = ws.take<double>(dim * n);
  scratch.pos_class = ws.take<int>(n);
  scratch.order = ws.take<std::uint32_t>(dim * n);
  scratch.tmp = ws.take<std::uint32_t>(n);
  scratch.go_left = ws.take<unsigned char>(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t row = indices[pos];
    scratch.pos_class[pos] = data.y[row];
    const std::vector<double>& x_row = data.x[row];
    for (std::size_t f = 0; f < dim; ++f) {
      scratch.values[f * n + pos] = x_row[f];
    }
  }
  const bool shared_usable = presorted != nullptr &&
                             presorted->rows() == data.size() &&
                             presorted->dims() == dim;
  if (shared_usable) {
    // Derive each feature's bag order from the shared per-dataset
    // sort: group bag positions by row once (counting sort), then
    // emit them in the shared value order — O(dim * (rows + n)) with
    // zero comparisons. Ties land in (value, row, position) order
    // instead of (value, position); intra-tie order does not affect
    // split choice, so fitted trees are unchanged.
    const std::size_t data_n = data.size();
    const std::span<std::uint32_t> row_start =
        ws.take<std::uint32_t>(data_n + 1);
    std::fill(row_start.begin(), row_start.end(), std::uint32_t{0});
    for (std::size_t pos = 0; pos < n; ++pos) ++row_start[indices[pos] + 1];
    for (std::size_t r = 0; r < data_n; ++r) row_start[r + 1] += row_start[r];
    const std::span<std::uint32_t> pos_by_row = ws.take<std::uint32_t>(n);
    const std::span<std::uint32_t> cursor = ws.take<std::uint32_t>(data_n);
    std::copy(row_start.begin(), row_start.begin() + static_cast<std::ptrdiff_t>(data_n),
              cursor.begin());
    for (std::size_t pos = 0; pos < n; ++pos) {
      pos_by_row[cursor[indices[pos]]++] = static_cast<std::uint32_t>(pos);
    }
    for (std::size_t f = 0; f < dim; ++f) {
      const std::uint32_t* shared_ord = presorted->order(f);
      std::uint32_t* ord = scratch.order.data() + f * n;
      std::size_t out = 0;
      for (std::size_t i = 0; i < data_n; ++i) {
        const std::uint32_t r = shared_ord[i];
        for (std::uint32_t t = row_start[r]; t < row_start[r + 1]; ++t) {
          ord[out++] = pos_by_row[t];
        }
      }
    }
  } else {
    for (std::size_t f = 0; f < dim; ++f) {
      const std::span<std::uint32_t> ord = scratch.order.subspan(f * n, n);
      std::iota(ord.begin(), ord.end(), std::uint32_t{0});
      const double* col = scratch.values.data() + f * n;
      // Ties broken by position: a deterministic total order without
      // stable_sort's hidden heap buffer. Intra-tie order does not
      // affect split choice (cuts only happen between distinct
      // values), so this matches a per-node value sort exactly.
      std::sort(ord.begin(), ord.end(),
                [col](std::uint32_t a, std::uint32_t b) {
                  return col[a] != col[b] ? col[a] < col[b] : a < b;
                });
    }
  }
  build_presort(data, scratch, 0, n, 0, rng);
}

std::int32_t DecisionTree::make_leaf(std::span<const std::size_t> class_counts,
                                     std::size_t count) {
  Node leaf;
  leaf.distribution.resize(static_cast<std::size_t>(classes_));
  for (int c = 0; c < classes_; ++c) {
    leaf.distribution[static_cast<std::size_t>(c)] =
        static_cast<double>(class_counts[static_cast<std::size_t>(c)]) /
        static_cast<double>(count);
  }
  leaf.leaf_id = leaf_count_++;
  nodes_.push_back(std::move(leaf));
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

// Presorted CART induction. Each feature's positions were sorted once
// in fit_indices; a node scans its [begin, end) window of every
// candidate feature's order array directly (no copy, no sort) and,
// after choosing a split, stable-partitions every feature's window by
// the split mask so both children see sorted windows again. Split
// scores only depend on class counts accumulated over runs of equal
// values, which are invariant to intra-tie ordering, so the chosen
// (feature, threshold) — and hence the serialized tree — is
// byte-identical to per-node copy+sort CART (the oracle test_tree
// compares against).
std::int32_t DecisionTree::build_presort(const Dataset& data,
                                         BuildScratch& scratch,
                                         std::size_t begin, std::size_t end,
                                         int depth, util::Rng& rng) {
  const std::size_t count = end - begin;
  const std::size_t n = scratch.n;
  const std::span<std::size_t> class_counts = scratch.class_counts;
  std::fill(class_counts.begin(), class_counts.end(), std::size_t{0});
  // Any feature's window holds exactly this node's positions.
  const std::uint32_t* node_pos = scratch.order.data() + begin;
  for (std::size_t j = 0; j < count; ++j) {
    ++class_counts[static_cast<std::size_t>(scratch.pos_class[node_pos[j]])];
  }
  const std::uint64_t node_sq = squared_count_sum(class_counts);

  if (depth >= config_.max_depth || count < config_.min_samples_split ||
      node_sq == static_cast<std::uint64_t>(count) * count) {
    return make_leaf(class_counts, count);
  }

  const std::size_t dim = scratch.dim;
  const std::span<std::size_t> features = scratch.features;
  std::iota(features.begin(), features.end(), std::size_t{0});
  std::size_t feature_count = dim;
  if (config_.features_per_split > 0 && config_.features_per_split < dim) {
    rng.shuffle(features);
    feature_count = config_.features_per_split;
  }

  // Must improve on the parent by more than the scaled epsilon.
  const double eps_scaled = 1e-12 * static_cast<double>(count);
  double best_metric =
      static_cast<double>(node_sq) / static_cast<double>(count);
  std::size_t best_feature = 0;
  double best_threshold = 0.0;
  bool found = false;

  for (std::size_t fi = 0; fi < feature_count; ++fi) {
    const std::size_t f = features[fi];
    const std::uint32_t* ord = scratch.order.data() + f * n + begin;
    const double* col = scratch.values.data() + f * n;

    const std::span<std::size_t> left_counts = scratch.left_counts;
    const std::span<std::size_t> right_counts = scratch.right_counts;
    std::fill(left_counts.begin(), left_counts.end(), std::size_t{0});
    std::copy(class_counts.begin(), class_counts.end(), right_counts.begin());
    std::uint64_t left_sq = 0;
    std::uint64_t right_sq = node_sq;
    // The sorted window makes each iteration's upper value the next
    // iteration's lower one, so only one value gather per position.
    double v = col[ord[0]];
    for (std::size_t i = 0; i + 1 < count; ++i) {
      const auto cls = static_cast<std::size_t>(scratch.pos_class[ord[i]]);
      left_sq += 2 * static_cast<std::uint64_t>(left_counts[cls]++) + 1;
      right_sq -= 2 * static_cast<std::uint64_t>(--right_counts[cls]) + 1;
      const double v_cur = v;
      v = col[ord[i + 1]];
      if (v_cur == v) continue;  // no valid cut
      const std::size_t n_left = i + 1;
      const std::size_t n_right = count - n_left;
      if (n_left < config_.min_samples_leaf || n_right < config_.min_samples_leaf) {
        continue;
      }
      const double metric = split_metric(left_sq, n_left, right_sq, n_right);
      if (metric > best_metric + eps_scaled) {
        best_metric = metric;
        best_feature = f;
        best_threshold = 0.5 * (v_cur + v);
        found = true;
      }
    }
  }

  if (!found) return make_leaf(class_counts, count);

  // Split mask by position, then stable-partition every feature's
  // window so both children keep sorted order. The mask depends only on
  // the row's value, so repeated bag positions of one row always go the
  // same way.
  const double* best_col = scratch.values.data() + best_feature * n;
  std::size_t left_total = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint32_t pos = node_pos[j];
    const bool goes_left = best_col[pos] <= best_threshold;
    scratch.go_left[pos] = goes_left ? 1 : 0;
    left_total += goes_left ? 1 : 0;
  }
  if (left_total == 0 || left_total == count) {
    return make_leaf(class_counts, count);  // degenerate partition
  }
  for (std::size_t f = 0; f < dim; ++f) {
    std::uint32_t* ord = scratch.order.data() + f * n + begin;
    std::uint32_t* spill = scratch.tmp.data();
    std::size_t write = 0;
    std::size_t spilled = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint32_t pos = ord[j];
      if (scratch.go_left[pos]) {
        ord[write++] = pos;
      } else {
        spill[spilled++] = pos;
      }
    }
    std::copy(spill, spill + spilled, ord + write);
  }
  const std::size_t mid = begin + left_total;

  // Reserve this node's slot before recursing so children line up.
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left =
      build_presort(data, scratch, begin, mid, depth + 1, rng);
  const std::int32_t right =
      build_presort(data, scratch, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(self)].feature = best_feature;
  nodes_[static_cast<std::size_t>(self)].threshold = best_threshold;
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

// Binned CART induction (LightGBM-style cuts). Cuts are scored only at
// boundaries between bins nonempty in the node, with the same
// incremental integer-Gini scan as the exact path; the stored
// threshold is the midpoint of the adjacent bins' edge values, so when
// the binner gave every distinct value its own bin the chosen
// (feature, threshold) sequence — and the fitted tree — matches the
// exact path byte for byte. RNG consumption (one shuffle per split
// attempt) is identical to the presort path, so bagging plans and
// thread-count determinism carry over unchanged.
std::int32_t DecisionTree::build_binned(const Dataset& data,
                                        const BinnedColumns& binned,
                                        BuildScratch& scratch,
                                        std::size_t begin, std::size_t end,
                                        int depth, util::Rng& rng) {
  const std::size_t count = end - begin;
  const std::uint32_t* node_pos = scratch.positions.data() + begin;
  const int* node_labels = scratch.labels.data() + begin;
  const std::span<std::size_t> class_counts = scratch.class_counts;
  std::fill(class_counts.begin(), class_counts.end(), std::size_t{0});
  for (std::size_t j = 0; j < count; ++j) {
    ++class_counts[static_cast<std::size_t>(node_labels[j])];
  }
  const std::uint64_t node_sq = squared_count_sum(class_counts);

  if (depth >= config_.max_depth || count < config_.min_samples_split ||
      node_sq == static_cast<std::uint64_t>(count) * count) {
    return make_leaf(class_counts, count);
  }

  const std::size_t dim = scratch.dim;
  const std::span<std::size_t> features = scratch.features;
  std::iota(features.begin(), features.end(), std::size_t{0});
  std::size_t feature_count = dim;
  if (config_.features_per_split > 0 && config_.features_per_split < dim) {
    rng.shuffle(features);
    feature_count = config_.features_per_split;
  }

  // Must improve on the parent by more than the scaled epsilon.
  const double eps_scaled = 1e-12 * static_cast<double>(count);
  double best_metric =
      static_cast<double>(node_sq) / static_cast<double>(count);
  std::size_t best_feature = 0;
  double best_threshold = 0.0;
  std::size_t best_cut_bin = 0;  ///< first bin routed right
  bool found = false;

  // Per candidate: counting sort the node's rows by code — count per
  // code and collect touched codes, prefix-sum the (sorted) touched
  // codes, scatter labels into code order — then run the exact path's
  // per-sample incremental scan over the ordered labels. Only the left
  // side is maintained; the right squared sum is derived at each
  // boundary from
  //   sum((total_c - left_c)^2) = node_sq - 2 * dot(total, left) + left_sq
  // so the per-sample loop carries one counter update and the dot
  // accumulator instead of two dependent read-modify-write chains.
  const std::span<std::size_t> left_counts = scratch.left_counts;
  const std::size_t min_leaf = config_.min_samples_leaf;
  std::uint32_t* bin_total = scratch.bin_total.data();
  std::uint8_t* touched = scratch.touched.data();
  std::uint32_t* bin_start = scratch.bin_start.data();
  std::uint16_t* scatter = scratch.scatter.data();
  const std::size_t* __restrict cc = class_counts.data();
  std::size_t* __restrict lc = left_counts.data();
  for (std::size_t fi = 0; fi < feature_count; ++fi) {
    const std::size_t f = features[fi];
    const std::uint8_t* codes = binned.codes(f);
    std::uint64_t bits[4] = {};
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t code = codes[node_pos[j]];
      ++bin_total[code];
      bits[code >> 6] |= std::uint64_t{1} << (code & 63);
    }
    // Touched codes as a 256-bit set: iterating its set bits yields
    // them already sorted, replacing a per-candidate std::sort.
    std::size_t d = 0;
    std::uint32_t acc = 0;
    for (std::size_t w = 0; w < 4; ++w) {
      std::uint64_t m = bits[w];
      while (m != 0) {
        const std::size_t code =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(m));
        m &= m - 1;
        touched[d] = static_cast<std::uint8_t>(code);
        bin_start[d] = acc;
        const std::uint32_t cnt = bin_total[code];
        bin_total[code] = acc;  // becomes the scatter cursor
        acc += cnt;
        ++d;
      }
    }
    bin_start[d] = acc;
    if (d < 2) {
      // Feature constant within this node: no boundary, no candidate.
      bin_total[touched[0]] = 0;
      continue;
    }
    for (std::size_t j = 0; j < count; ++j) {
      scatter[bin_total[codes[node_pos[j]]]++] =
          static_cast<std::uint16_t>(node_labels[j]);
    }
    std::fill(left_counts.begin(), left_counts.end(), std::size_t{0});
    std::uint64_t left_sq = 0;
    std::uint64_t dot = 0;  ///< dot(class_counts, left_counts)
    for (std::size_t t = 0; t < d; ++t) {
      // Cut between touched bins t-1 and t: empty bins are never in
      // `touched`, so these are the exact scan's "value changed"
      // boundaries.
      if (t > 0) {
        const std::size_t n_left = bin_start[t];
        const std::size_t n_right = count - n_left;
        if (n_left >= min_leaf && n_right >= min_leaf) {
          const std::uint64_t right_sq = node_sq + left_sq - 2 * dot;
          if (split_metric_may_beat(left_sq, n_left, right_sq, n_right,
                                    best_metric + eps_scaled)) {
            const double metric =
                split_metric(left_sq, n_left, right_sq, n_right);
            if (metric > best_metric + eps_scaled) {
              best_metric = metric;
              best_feature = f;
              best_threshold = 0.5 * (binned.upper_value(f, touched[t - 1]) +
                                      binned.lower_value(f, touched[t]));
              best_cut_bin = touched[t];
              found = true;
            }
          }
        }
      }
      // Restore the all-zero cursor invariant as each bin is scanned.
      bin_total[touched[t]] = 0;
      if (t + 1 == d) break;  // the last bin's samples feed no boundary
      for (std::uint32_t k = bin_start[t]; k < bin_start[t + 1]; ++k) {
        const std::size_t cls = scatter[k];
        left_sq += 2 * static_cast<std::uint64_t>(lc[cls]++) + 1;
        dot += cc[cls];
      }
    }
  }

  if (!found) return make_leaf(class_counts, count);

  // Stable partition of the position window by bin code; repeats of one
  // row share a code so they always go the same way. Both sides are
  // nonempty by construction of the cut.
  const std::uint8_t* best_codes = binned.codes(best_feature);
  std::uint32_t* pos = scratch.positions.data() + begin;
  int* labels = scratch.labels.data() + begin;
  std::uint32_t* spill = scratch.spill.data();
  std::size_t write = 0;
  std::size_t spilled = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint32_t row = pos[j];
    if (best_codes[row] < best_cut_bin) {
      pos[write] = row;
      labels[write] = labels[j];
      ++write;
    } else {
      spill[spilled++] = row;
    }
  }
  for (std::size_t j = 0; j < spilled; ++j) {
    const std::uint32_t row = spill[j];
    pos[write + j] = row;
    labels[write + j] = data.y[row];
  }
  const std::size_t mid = begin + write;
  if (mid == begin || mid == end) return make_leaf(class_counts, count);

  // Reserve this node's slot before recursing so children line up.
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left =
      build_binned(data, binned, scratch, begin, mid, depth + 1, rng);
  const std::int32_t right =
      build_binned(data, binned, scratch, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(self)].feature = best_feature;
  nodes_[static_cast<std::size_t>(self)].threshold = best_threshold;
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

const DecisionTree::Node& DecisionTree::route(std::span<const double> row) const {
  if (nodes_.empty()) throw util::DataError{"DecisionTree: not fitted"};
  const Node* node = &nodes_[0];
  // The root is node 0: build() pushes the root's slot first for
  // internal roots; a pure-leaf tree has exactly one node. Child
  // indices were validated at fit/deserialize time; the feature index
  // still has to be checked against this row's width.
  while (!node->is_leaf()) {
    if (node->feature >= row.size()) {
      throw util::DataError{"DecisionTree: row narrower than split feature"};
    }
    const std::int32_t next =
        row[node->feature] <= node->threshold ? node->left : node->right;
    node = &nodes_[static_cast<std::size_t>(next)];
  }
  return *node;
}

int DecisionTree::predict(std::span<const double> row) const {
  const std::vector<double>& dist = route(row).distribution;
  return static_cast<int>(std::max_element(dist.begin(), dist.end()) -
                          dist.begin());
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> row) const {
  return route(row).distribution;
}

std::size_t DecisionTree::leaf_index(std::span<const double> row) const {
  return route(row).leaf_id;
}

std::unique_ptr<Classifier> DecisionTree::clone() const {
  return std::make_unique<DecisionTree>(config_);
}

void DecisionTree::serialize(std::ostream& out) const {
  if (nodes_.empty()) throw util::DataError{"DecisionTree::serialize: not fitted"};
  out << std::setprecision(17);
  out << classes_ << ' ' << nodes_.size() << ' ' << leaf_count_ << '\n';
  for (const Node& n : nodes_) {
    out << n.feature << ' ' << n.threshold << ' ' << n.left << ' ' << n.right
        << ' ' << n.leaf_id << ' ' << n.distribution.size();
    for (const double v : n.distribution) out << ' ' << v;
    out << '\n';
  }
}

void DecisionTree::deserialize(std::istream& in) {
  std::size_t node_count = 0;
  in >> classes_ >> node_count >> leaf_count_;
  if (!in || classes_ <= 0) {
    throw util::DataError{"DecisionTree::deserialize: bad header"};
  }
  detail::check_count(static_cast<std::size_t>(classes_), detail::kMaxClasses,
                      "DecisionTree::deserialize classes");
  detail::check_count(node_count, detail::kMaxNodes,
                      "DecisionTree::deserialize nodes");
  if (leaf_count_ == 0 || leaf_count_ > node_count) {
    throw util::DataError{"DecisionTree::deserialize: bad leaf count"};
  }
  nodes_.clear();
  for (std::size_t i = 0; i < node_count; ++i) {
    Node& n = nodes_.emplace_back();
    std::size_t dist_size = 0;
    in >> n.feature >> n.threshold >> n.left >> n.right >> n.leaf_id >>
        dist_size;
    if (!in || dist_size > detail::kMaxClasses) {
      throw util::DataError{"DecisionTree::deserialize: bad node"};
    }
    detail::read_values(in, dist_size, n.distribution);
    if (!in) throw util::DataError{"DecisionTree::deserialize: truncated"};
  }
  // Structural validation: route() walks child indices unchecked on the
  // hot path, so everything it relies on is proven here. The builder's
  // invariant — children are appended after their parent — doubles as
  // the acyclicity proof: strictly increasing indices must terminate.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.is_leaf()) {
      if (n.distribution.size() != static_cast<std::size_t>(classes_)) {
        throw util::DataError{
            "DecisionTree::deserialize: leaf distribution size mismatch"};
      }
      if (n.leaf_id >= leaf_count_) {
        throw util::DataError{"DecisionTree::deserialize: leaf id out of range"};
      }
    } else {
      const auto lo = static_cast<std::int32_t>(i);
      const auto hi = static_cast<std::int32_t>(node_count);
      if (n.left <= lo || n.left >= hi || n.right <= lo || n.right >= hi) {
        throw util::DataError{
            "DecisionTree::deserialize: child index out of range"};
      }
      if (n.feature > detail::kMaxDim) {
        throw util::DataError{
            "DecisionTree::deserialize: feature index out of range"};
      }
    }
  }
}

int DecisionTree::depth() const noexcept {
  // Iterative depth computation over the node array.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<std::size_t, int>> stack{{0, 1}};
  int max_depth = 0;
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& node = nodes_[idx];
    if (!node.is_leaf()) {
      stack.push_back({static_cast<std::size_t>(node.left), d + 1});
      stack.push_back({static_cast<std::size_t>(node.right), d + 1});
    }
  }
  return max_depth;
}

}  // namespace emoleak::ml
