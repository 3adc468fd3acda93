// CART classification tree (Gini splits).
//
// Kim et al. (TVLSI 2017) and Mandal et al. (TVLSI 2019) represent offline
// policies with tree models because they evaluate in a handful of
// comparisons — cheap enough for an OS governor.  The explicit NMPC
// (core/nmpc.h) fits one as its GPU slice-count law.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/matrix.h"

namespace oal::ml {

struct TreeConfig {
  std::size_t max_depth = 8;
  std::size_t min_samples_split = 8;
  std::size_t min_samples_leaf = 4;
};

class ClassificationTree {
 public:
  explicit ClassificationTree(TreeConfig cfg = {}) : cfg_(cfg) {}

  /// Labels must be in [0, num_classes).
  void fit(const std::vector<common::Vec>& x, const std::vector<std::size_t>& y,
           std::size_t num_classes);
  std::size_t predict(const common::Vec& x) const;
  bool fitted() const { return root_ != nullptr; }

 private:
  struct Node {
    bool leaf = true;
    std::size_t label = 0;
    std::size_t feature = 0;
    double threshold = 0.0;
    std::unique_ptr<Node> left, right;
  };
  std::unique_ptr<Node> build(const std::vector<common::Vec>& x,
                              const std::vector<std::size_t>& y, std::vector<std::size_t>& idx,
                              std::size_t depth);
  TreeConfig cfg_;
  std::size_t num_classes_ = 0;
  std::unique_ptr<Node> root_;
};

}  // namespace oal::ml
