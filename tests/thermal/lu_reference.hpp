// Dense LU factorization with partial pivoting: the direct-solve oracle the
// thermal tests check the modal propagator against. Test-only — the
// simulator itself never factors a matrix.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "thermal/linalg.hpp"

namespace dimetrodon::thermal::testing {

class ReferenceLu {
 public:
  /// Factor `m`; false (and unusable) when a pivot falls below 1e-300.
  bool factor(const DenseMatrix& m) {
    const std::size_t n = m.size();
    lu_ = m;
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    valid_ = false;
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < n; ++r) {
        if (std::fabs(lu_.at(r, col)) > std::fabs(lu_.at(pivot, col))) {
          pivot = r;
        }
      }
      if (std::fabs(lu_.at(pivot, col)) < 1e-300) return false;
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_.at(pivot, c), lu_.at(col, c));
      }
      std::swap(perm_[pivot], perm_[col]);
      for (std::size_t r = col + 1; r < n; ++r) {
        const double f = lu_.at(r, col) / lu_.at(col, col);
        lu_.at(r, col) = f;
        for (std::size_t c = col + 1; c < n; ++c) {
          lu_.at(r, c) -= f * lu_.at(col, c);
        }
      }
    }
    valid_ = true;
    return true;
  }

  /// Solve A·x = b in place. Requires a successful factor().
  void solve(std::vector<double>& b) const {
    const std::size_t n = lu_.size();
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) x[i] -= lu_.at(i, j) * x[j];
    }
    for (std::size_t i = n; i-- > 0;) {
      for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu_.at(i, j) * x[j];
      x[i] /= lu_.at(i, i);
    }
    b = std::move(x);
  }

  bool valid() const { return valid_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  bool valid_ = false;
};

}  // namespace dimetrodon::thermal::testing
