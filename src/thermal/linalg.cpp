#include "thermal/linalg.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace dimetrodon::thermal {

namespace {

/// Shared row kernel: one accumulator, terms in column order, unrolled 4x.
/// Each statement is the naive loop's body verbatim, so the emitted op
/// sequence (fused or not) is term-for-term identical to the reference —
/// the unroll exposes the four loads per iteration to the pipeline without
/// introducing a second rounding order.
inline double dot_row(const double* a, const double* xv, std::size_t n) {
  double acc = 0.0;
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    acc += a[c] * xv[c];
    acc += a[c + 1] * xv[c + 1];
    acc += a[c + 2] * xv[c + 2];
    acc += a[c + 3] * xv[c + 3];
  }
  for (; c < n; ++c) acc += a[c] * xv[c];
  return acc;
}

}  // namespace

void matvec(const DenseMatrix& m, const std::vector<double>& x,
            std::vector<double>& y) {
  const std::size_t n = m.size();
  assert(x.size() == n);
  y.resize(n);
  const double* xv = x.data();
  for (std::size_t r = 0; r < n; ++r) y[r] = dot_row(m.row(r), xv, n);
}

void matvec_reference(const DenseMatrix& m, const std::vector<double>& x,
                      std::vector<double>& y) {
  const std::size_t n = m.size();
  assert(x.size() == n);
  y.assign(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < n; ++c) acc += m.at(r, c) * x[c];
    y[r] = acc;
  }
}

SymmetricEigen symmetric_eigen(DenseMatrix a) {
  constexpr int kMaxSweeps = 64;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const std::size_t n = a.size();
  DenseMatrix v = DenseMatrix::identity(n);
  // Rotate columns p and q of m by (c, s): m_kp, m_kq ← c·m_kp − s·m_kq,
  // s·m_kp + c·m_kq.
  const auto rotate_cols = [n](DenseMatrix& m, std::size_t p, std::size_t q,
                               double c, double s) {
    for (std::size_t k = 0; k < n; ++k) {
      const double mp = m.at(k, p);
      const double mq = m.at(k, q);
      m.at(k, p) = c * mp - s * mq;
      m.at(k, q) = s * mp + c * mq;
    }
  };
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a.at(p, q);
        if (apq == 0.0) continue;
        const double app = a.at(p, p);
        const double aqq = a.at(q, q);
        if (std::fabs(apq) <= kEps * std::sqrt(std::fabs(app * aqq))) {
          a.at(p, q) = a.at(q, p) = 0.0;
          continue;
        }
        rotated = true;
        // The rotation angle that zeroes a_pq, via its stable tangent.
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(1.0, theta) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        rotate_cols(a, p, q, c, s);
        for (std::size_t k = 0; k < n; ++k) {  // and rows p, q: a ← Jᵀ·a·J
          const double ap = a.at(p, k);
          const double aq = a.at(q, k);
          a.at(p, k) = c * ap - s * aq;
          a.at(q, k) = s * ap + c * aq;
        }
        a.at(p, q) = a.at(q, p) = 0.0;
        rotate_cols(v, p, q, c, s);
      }
    }
    if (!rotated) break;
  }
  SymmetricEigen e;
  e.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) e.values[i] = a.at(i, i);
  e.vectors = std::move(v);
  return e;
}

}  // namespace dimetrodon::thermal
