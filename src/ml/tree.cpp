#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace oal::ml {

namespace {

// Candidate split: sorts idx by feature f and scans boundaries.
struct SplitResult {
  bool found = false;
  std::size_t feature = 0;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // lower is better
};

}  // namespace

// ---- ClassificationTree -----------------------------------------------------

void ClassificationTree::fit(const std::vector<common::Vec>& x, const std::vector<std::size_t>& y,
                             std::size_t num_classes) {
  if (x.empty() || x.size() != y.size())
    throw std::invalid_argument("ClassificationTree::fit: bad data");
  num_classes_ = num_classes;
  for (std::size_t label : y)
    if (label >= num_classes) throw std::invalid_argument("ClassificationTree: label out of range");
  std::vector<std::size_t> idx(x.size());
  std::iota(idx.begin(), idx.end(), 0);
  root_ = build(x, y, idx, 0);
}

std::unique_ptr<ClassificationTree::Node> ClassificationTree::build(
    const std::vector<common::Vec>& x, const std::vector<std::size_t>& y,
    std::vector<std::size_t>& idx, std::size_t depth) {
  auto node = std::make_unique<Node>();
  std::vector<std::size_t> counts(num_classes_, 0);
  for (std::size_t i : idx) ++counts[y[i]];
  node->label = static_cast<std::size_t>(
      std::distance(counts.begin(), std::max_element(counts.begin(), counts.end())));

  const bool pure = counts[node->label] == idx.size();
  if (pure || depth >= cfg_.max_depth || idx.size() < cfg_.min_samples_split) return node;

  const std::size_t dims = x.front().size();
  SplitResult best;
  std::vector<double> lcnt(num_classes_), rcnt(num_classes_);
  for (std::size_t f = 0; f < dims; ++f) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) { return x[a][f] < x[b][f]; });
    std::fill(lcnt.begin(), lcnt.end(), 0.0);
    std::fill(rcnt.begin(), rcnt.end(), 0.0);
    for (std::size_t i : idx) rcnt[y[i]] += 1.0;
    for (std::size_t k = 0; k + 1 < idx.size(); ++k) {
      lcnt[y[idx[k]]] += 1.0;
      rcnt[y[idx[k]]] -= 1.0;
      if (x[idx[k]][f] == x[idx[k + 1]][f]) continue;
      const double nl = static_cast<double>(k + 1);
      const double nr = static_cast<double>(idx.size() - k - 1);
      if (nl < static_cast<double>(cfg_.min_samples_leaf) ||
          nr < static_cast<double>(cfg_.min_samples_leaf))
        continue;
      double gl = 1.0, gr = 1.0;
      for (std::size_t c = 0; c < num_classes_; ++c) {
        gl -= (lcnt[c] / nl) * (lcnt[c] / nl);
        gr -= (rcnt[c] / nr) * (rcnt[c] / nr);
      }
      const double score = nl * gl + nr * gr;  // weighted Gini impurity
      if (score < best.score) {
        best = {true, f, 0.5 * (x[idx[k]][f] + x[idx[k + 1]][f]), score};
      }
    }
  }
  if (!best.found) return node;

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : idx) {
    (x[i][best.feature] <= best.threshold ? left_idx : right_idx).push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return node;

  node->leaf = false;
  node->feature = best.feature;
  node->threshold = best.threshold;
  node->left = build(x, y, left_idx, depth + 1);
  node->right = build(x, y, right_idx, depth + 1);
  return node;
}

std::size_t ClassificationTree::predict(const common::Vec& x) const {
  if (!root_) throw std::logic_error("ClassificationTree::predict before fit");
  const Node* n = root_.get();
  while (!n->leaf) n = x[n->feature] <= n->threshold ? n->left.get() : n->right.get();
  return n->label;
}

}  // namespace oal::ml
