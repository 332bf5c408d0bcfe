#pragma once

#include <cstddef>
#include <vector>

namespace dimetrodon::thermal {

/// Minimal dense linear algebra for the small thermal networks this library
/// builds. Row-major square matrices.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(std::size_t n) : n_(n), a_(n * n, 0.0) {}

  /// The n×n identity.
  static DenseMatrix identity(std::size_t n) {
    DenseMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
    return m;
  }

  std::size_t size() const { return n_; }
  double& at(std::size_t r, std::size_t c) { return a_[r * n_ + c]; }
  double at(std::size_t r, std::size_t c) const { return a_[r * n_ + c]; }
  /// Contiguous row `r` (n elements, row-major) — the matvec kernels stream
  /// rows directly instead of re-deriving the offset per element.
  const double* row(std::size_t r) const { return a_.data() + r * n_; }

 private:
  std::size_t n_ = 0;
  std::vector<double> a_;
};

/// y = M x. `x` must have M.size() elements; `y` is resized. `y` must not
/// alias `x`.
///
/// The kernel unrolls each row's dot product 4x while KEEPING the single
/// accumulator and the term order — every `acc += a[c] * x[c]` of the naive
/// loop executes in the same sequence on the same chain, so the result is
/// bitwise-identical to matvec_reference under any -ffp-contract setting
/// (contraction fuses each term's multiply-add the same way in both). The
/// unroll buys straight-line instruction-level parallelism on the loads and
/// amortized loop overhead, not a reassociated (and differently-rounded)
/// reduction.
void matvec(const DenseMatrix& m, const std::vector<double>& x,
            std::vector<double>& y);

/// The textbook row-loop matvec, kept as the parity oracle: tests assert
/// the unrolled kernel matches it bit-for-bit, and the microbench reports
/// the unroll's speedup against it.
void matvec_reference(const DenseMatrix& m, const std::vector<double>& x,
                      std::vector<double>& y);

/// Eigendecomposition of a real symmetric matrix: A = V·diag(values)·Vᵀ,
/// with V orthogonal (column j is the eigenvector of values[j]).
struct SymmetricEigen {
  std::vector<double> values;
  DenseMatrix vectors;
};

/// Cyclic Jacobi eigensolver for the small symmetric matrices the thermal
/// propagator decomposes once per topology. `a` must be symmetric. An
/// off-diagonal entry is dropped once it is below ε·√|a_pp·a_qq|, the
/// relative criterion that keeps small eigenvalues of a scaled, diagonally
/// dominant matrix accurate. Rotations never touch an exact-zero entry, so
/// a block-diagonal input stays block-diagonal.
SymmetricEigen symmetric_eigen(DenseMatrix a);

}  // namespace dimetrodon::thermal
