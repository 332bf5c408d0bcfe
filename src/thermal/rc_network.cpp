#include "thermal/rc_network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dimetrodon::thermal {

NodeId RcNetwork::add_node(std::string name, double capacitance_j_per_c,
                           double initial_temp_c) {
  if (capacitance_j_per_c <= 0.0) {
    throw std::invalid_argument("thermal node capacitance must be positive");
  }
  nodes_.push_back(Node{std::move(name), capacitance_j_per_c, false});
  temps_.push_back(initial_temp_c);
  powers_.push_back(0.0);
  ++topology_revision_;
  return nodes_.size() - 1;
}

NodeId RcNetwork::add_fixed_node(std::string name, double temp_c) {
  nodes_.push_back(Node{std::move(name), 0.0, true});
  temps_.push_back(temp_c);
  powers_.push_back(0.0);
  ++topology_revision_;
  return nodes_.size() - 1;
}

void RcNetwork::connect(NodeId a, NodeId b, double conductance_w_per_c) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("RcNetwork::connect: bad NodeId");
  }
  if (a == b) {
    throw std::invalid_argument("RcNetwork::connect: self-loop");
  }
  if (conductance_w_per_c <= 0.0) {
    throw std::invalid_argument("thermal conductance must be positive");
  }
  edges_.push_back(Edge{a, b, conductance_w_per_c});
  ++topology_revision_;
}

void RcNetwork::set_conductance(NodeId a, NodeId b,
                                double conductance_w_per_c) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("RcNetwork::set_conductance: bad NodeId");
  }
  if (conductance_w_per_c <= 0.0) {
    throw std::invalid_argument("thermal conductance must be positive");
  }
  for (Edge& e : edges_) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
      e.g = conductance_w_per_c;
      // The modal decomposition bakes in G; a revision bump makes the next
      // step re-decompose against the new conductance.
      ++topology_revision_;
      return;
    }
  }
  throw std::invalid_argument("RcNetwork::set_conductance: no such edge");
}

void RcNetwork::set_temperature(NodeId n, double t) {
  if (n >= nodes_.size()) {
    throw std::out_of_range("RcNetwork::set_temperature: bad NodeId");
  }
  temps_[n] = t;
}

void RcNetwork::restore_state(const State& s) {
  if (s.temps.size() != temps_.size() || s.powers.size() != powers_.size()) {
    throw std::invalid_argument(
        "RcNetwork::restore_state: node count mismatch");
  }
  temps_ = s.temps;
  powers_ = s.powers;
  stats_ = s.stats;
}

void RcNetwork::set_all_temperatures(double t) {
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].fixed) temps_[n] = t;
  }
}

double RcNetwork::total_power() const {
  double sum = 0.0;
  for (double p : powers_) sum += p;
  return sum;
}

void RcNetwork::ensure_modes() {
  if (built_revision_ == topology_revision_) return;
  constexpr std::size_t kFixed = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> row(nodes_.size(), kFixed);
  free_nodes_.clear();
  capacitance_.clear();
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].fixed) {
      row[n] = free_nodes_.size();
      free_nodes_.push_back(n);
      capacitance_.push_back(nodes_[n].capacitance);
    }
  }
  const std::size_t nf = free_nodes_.size();

  // G over the free nodes; free-to-fixed edges move to the input term.
  DenseMatrix g(nf);
  boundary_.clear();
  for (const Edge& e : edges_) {
    const std::size_t ia = row[e.a];
    const std::size_t ib = row[e.b];
    if (ia != kFixed) g.at(ia, ia) += e.g;
    if (ib != kFixed) g.at(ib, ib) += e.g;
    if (ia != kFixed && ib != kFixed) {
      g.at(ia, ib) -= e.g;
      g.at(ib, ia) -= e.g;
    } else if (ia != kFixed) {
      boundary_.push_back(BoundaryEdge{ia, e.b, e.g});
    } else if (ib != kFixed) {
      boundary_.push_back(BoundaryEdge{ib, e.a, e.g});
    }
  }
  conductance_sum_.resize(nf);
  for (std::size_t i = 0; i < nf; ++i) conductance_sum_[i] = g.at(i, i);

  // G̃ = D⁻¹·G·D⁻¹ with D = diag(√C) is symmetric (the product of the two
  // scales commutes exactly), so Jacobi applies.
  std::vector<double> sqrt_c(nf);
  for (std::size_t i = 0; i < nf; ++i) sqrt_c[i] = std::sqrt(capacitance_[i]);
  for (std::size_t i = 0; i < nf; ++i) {
    for (std::size_t j = 0; j < nf; ++j) {
      g.at(i, j) /= sqrt_c[i] * sqrt_c[j];
    }
  }
  const SymmetricEigen eig = symmetric_eigen(std::move(g));

  // A free component with no path to a fixed node has one λ = 0 mode, which
  // Jacobi returns as rounding noise of either sign: snap everything below
  // 64·n·ε of the largest eigenvalue to an exact 0.
  double lambda_max = 0.0;
  for (const double l : eig.values) lambda_max = std::max(lambda_max, l);
  const double zero_floor = 64.0 * static_cast<double>(nf) *
                            std::numeric_limits<double>::epsilon() *
                            lambda_max;
  lambda_.resize(nf);
  for (std::size_t j = 0; j < nf; ++j) {
    lambda_[j] = eig.values[j] <= zero_floor ? 0.0 : eig.values[j];
  }

  state_to_modal_ = DenseMatrix(nf);
  input_to_modal_ = DenseMatrix(nf);
  modal_to_state_ = DenseMatrix(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    for (std::size_t j = 0; j < nf; ++j) {
      const double q = eig.vectors.at(i, j);
      state_to_modal_.at(j, i) = q * sqrt_c[i];
      input_to_modal_.at(j, i) = q / sqrt_c[i];
      modal_to_state_.at(i, j) = q / sqrt_c[i];
    }
  }
  t_.assign(nf, 0.0);
  input_.assign(nf, 0.0);
  y_.assign(nf, 0.0);
  beta_.assign(nf, 0.0);
  ++stats_.factorizations;
  built_revision_ = topology_revision_;
}

void RcNetwork::check_step(double h) const {
  // The implicit-Euler matrix C/h + G is singular to working precision when
  // a row's diagonal underflows the pivot floor of a direct solve.
  for (std::size_t i = 0; i < capacitance_.size(); ++i) {
    if (!(capacitance_[i] / h + conductance_sum_[i] >= 1e-300)) {
      throw std::runtime_error("thermal step matrix is singular");
    }
  }
}

void RcNetwork::to_modal() {
  const std::size_t nf = free_nodes_.size();
  for (std::size_t i = 0; i < nf; ++i) {
    t_[i] = temps_[free_nodes_[i]];
    input_[i] = powers_[free_nodes_[i]];
  }
  for (const BoundaryEdge& b : boundary_) {
    input_[b.row] += b.g * temps_[b.fixed];
  }
  matvec(state_to_modal_, t_, y_);
  matvec(input_to_modal_, input_, beta_);
  stats_.matvecs += 2;
}

void RcNetwork::from_modal() {
  matvec(modal_to_state_, y_, t_);
  ++stats_.matvecs;
  for (std::size_t i = 0; i < free_nodes_.size(); ++i) {
    temps_[free_nodes_[i]] = t_[i];
  }
}

void RcNetwork::euler_step(double h) {
  for (std::size_t j = 0; j < y_.size(); ++j) {
    y_[j] = (y_[j] + h * beta_[j]) / (1.0 + h * lambda_[j]);
  }
}

void RcNetwork::advance(double dt_seconds, std::uint64_t substeps,
                        double tail_seconds) {
  assert(dt_seconds > 0.0 && tail_seconds >= 0.0);
  if (substeps == 0 && tail_seconds == 0.0) return;
  ensure_modes();
  if (substeps > 0) check_step(dt_seconds);
  if (tail_seconds > 0.0) check_step(tail_seconds);
  to_modal();

  if (substeps == 1) {
    euler_step(dt_seconds);
  } else if (substeps > 1) {
    // y_k = y* + (1 + dt·λ)^(−k)·(y − y*), written as y += (1 − a^k)·(y* − y)
    // with 1 − a^k = −expm1(−k·log1p(dt·λ)) so neither a slow mode (a^k ≈ 1)
    // nor a fast one (a^k ≈ 0) loses bits. A zero mode drifts linearly.
    const double k = static_cast<double>(substeps);
    for (std::size_t j = 0; j < y_.size(); ++j) {
      if (lambda_[j] == 0.0) {
        y_[j] += k * dt_seconds * beta_[j];
        continue;
      }
      const double target = beta_[j] / lambda_[j];
      const double settled =
          -std::expm1(-k * std::log1p(dt_seconds * lambda_[j]));
      y_[j] += settled * (target - y_[j]);
    }
    stats_.fast_forward_steps += substeps;
  }
  if (tail_seconds > 0.0) {
    euler_step(tail_seconds);
    ++stats_.substeps;
  }
  stats_.substeps += substeps;
  from_modal();
}

void RcNetwork::solve_steady_state() {
  // Steady state is the dt -> infinity limit: y* = β/λ on every mode.
  ensure_modes();
  for (const double l : lambda_) {
    if (l == 0.0) {
      throw std::runtime_error(
          "thermal network has a free node with no path to a fixed node");
    }
  }
  to_modal();
  for (std::size_t j = 0; j < y_.size(); ++j) y_[j] = beta_[j] / lambda_[j];
  from_modal();
}

}  // namespace dimetrodon::thermal
