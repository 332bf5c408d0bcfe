#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "thermal/linalg.hpp"

namespace dimetrodon::thermal {

using NodeId = std::size_t;

/// Lumped RC thermal network (the standard compact model behind tools like
/// HotSpot). Nodes are thermal masses (capacitance J/°C) or fixed-temperature
/// boundaries (ambient); edges are thermal conductances (W/°C). Power sources
/// inject heat at nodes; `step()` advances temperatures with unconditionally
/// stable implicit Euler, so the millisecond-scale die dynamics and the
/// minute-scale heatsink dynamics integrate correctly with one step size.
///
/// Stepping is modal. Over the free nodes, with D = diag(√C), the scaled
/// conductance matrix G̃ = D⁻¹·G·D⁻¹ is symmetric, so it is decomposed once
/// per topology revision as G̃ = Q·Λ·Qᵀ. In modal coordinates y = Qᵀ·D·T,
/// with β = Qᵀ·D⁻¹·(P + G_b·T_fixed), implicit Euler at any dt is diagonal:
/// y' = (y + dt·β)/(1 + dt·λ), and k substeps under a constant power vector
/// have the closed form y_k = y* + (1 + dt·λ)^(−k)·(y − y*) with y* = β/λ.
/// Every step therefore costs three O(n²) matvecs at its exact dt, with no
/// factorization and no per-dt cache; `y` is recomputed from the
/// temperatures on every call, so the network carries no modal state.
class RcNetwork {
 public:
  /// Add a thermal mass. `capacitance` must be > 0.
  NodeId add_node(std::string name, double capacitance_j_per_c,
                  double initial_temp_c);

  /// Add a fixed-temperature boundary node (e.g. ambient air).
  NodeId add_fixed_node(std::string name, double temp_c);

  /// Connect two nodes with thermal conductance g (W/°C). Throws
  /// std::out_of_range on a bad NodeId and std::invalid_argument on a
  /// self-loop or non-positive conductance — thrown (not assert) so Release
  /// builds catch bad FleetSpec overrides too. `resistance` convenience:
  /// connect_r uses g = 1/r.
  void connect(NodeId a, NodeId b, double conductance_w_per_c);
  void connect_r(NodeId a, NodeId b, double resistance_c_per_w) {
    connect(a, b, 1.0 / resistance_c_per_w);
  }

  /// Re-weight an existing edge (either endpoint order) to conductance g.
  /// This is the live-degradation knob — a fan slowing down mid-run changes
  /// the heatsink→ambient conductance of an edge that already exists, which
  /// calling connect() again would NOT do (it appends a parallel edge and
  /// the conductances would add). Bumps the topology revision so the next
  /// step re-decomposes against the new G matrix. Throws
  /// std::invalid_argument when no such edge exists or g <= 0.
  void set_conductance(NodeId a, NodeId b, double conductance_w_per_c);

  std::size_t node_count() const { return nodes_.size(); }
  const std::string& name(NodeId n) const { return nodes_[n].name; }
  bool is_fixed(NodeId n) const { return nodes_[n].fixed; }

  double temperature(NodeId n) const { return temps_[n]; }
  /// Throws std::out_of_range on a bad NodeId (checked in Release too).
  void set_temperature(NodeId n, double t);

  /// Set every free node to `t` (fixed nodes keep their boundary value).
  void set_all_temperatures(double t);

  double power(NodeId n) const { return powers_[n]; }
  /// Throws std::out_of_range on a bad NodeId. The check is one predictable
  /// compare on an already-loaded size — noise next to the store it guards.
  void set_power(NodeId n, double watts) {
    if (n >= powers_.size()) {
      throw std::out_of_range("RcNetwork::set_power: bad NodeId");
    }
    powers_[n] = watts;
  }

  /// Advance all free-node temperatures by `dt_seconds` with the current
  /// power vector held constant (one implicit-Euler step; `advance(dt, 1)`).
  /// Throws std::runtime_error("thermal step matrix is singular") when some
  /// free row's implicit-Euler diagonal C_i/dt + Σg_i is below 1e-300.
  void step(double dt_seconds) { advance(dt_seconds, 1); }

  /// Advance `substeps` implicit-Euler substeps of `dt_seconds`, then one
  /// `tail_seconds` step (skipped when 0), with the current power vector held
  /// constant, in one pass: one transform into modal coordinates and one
  /// out. Physics-equivalent to that many sequential step() calls. A single
  /// substep and the tail use the same arithmetic as step(), so they are
  /// bit-identical to it. Same singular-matrix throw as step().
  void advance(double dt_seconds, std::uint64_t substeps,
               double tail_seconds = 0.0);

  /// Jump straight to the steady state (y* = β/λ) for the current power
  /// vector. Requires every free node to have a conduction path to a fixed
  /// node: a numerically zero λ throws std::runtime_error.
  void solve_steady_state();

  /// Sum of injected power over all nodes (diagnostics / conservation tests).
  double total_power() const;

  /// Monotonic work counters for the stepping engine (observability; the
  /// machine mirrors these into its obs counter registry).
  struct Stats {
    std::uint64_t substeps = 0;            // substeps integrated, any path
    std::uint64_t fast_forward_steps = 0;  // substeps in closed-form k ≥ 2 runs
    std::uint64_t factorizations = 0;      // modal decompositions (topology)
    std::uint64_t matvecs = 0;             // dense matrix-vector products
  };
  const Stats& stats() const { return stats_; }

  /// Portable dynamic state: everything `advance`/`step` read or write that
  /// is not topology. Captured/restored by the machine snapshot layer; the
  /// modal decomposition is deliberately *not* part of it — it is a pure
  /// function of the topology and rebuilds lazily with bit-identical
  /// arithmetic after a restore.
  struct State {
    std::vector<double> temps;
    std::vector<double> powers;
    Stats stats;
  };
  State save_state() const { return State{temps_, powers_, stats_}; }
  /// Restore a state captured from a network with identical topology.
  /// Throws std::invalid_argument on a node-count mismatch.
  void restore_state(const State& s);

 private:
  struct Node {
    std::string name;
    double capacitance = 0.0;  // J/°C; 0 for fixed nodes
    bool fixed = false;
  };
  struct Edge {
    NodeId a;
    NodeId b;
    double g;  // W/°C
  };

  /// Rebuild the free-node mapping and the modal decomposition if the
  /// topology changed since they were built.
  void ensure_modes();

  /// Throw if some free row's implicit-Euler diagonal C_i/h + Σg_i is below
  /// the 1e-300 pivot floor (a step at h would be numerically singular).
  void check_step(double h) const;

  /// Gather the free-node temperatures and inputs, then y_ = Qᵀ·D·T and
  /// beta_ = Qᵀ·D⁻¹·(P + G_b·T_fixed).
  void to_modal();

  /// temps_ (free nodes) = D⁻¹·Q·y_.
  void from_modal();

  /// One implicit-Euler step of `h` seconds on every mode. The single
  /// substep and the tail of advance() both run exactly this arithmetic.
  void euler_step(double h);

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<double> temps_;
  std::vector<double> powers_;

  /// An edge from free row `row` to fixed node `fixed`: it feeds g·T_fixed
  /// into that row's input term.
  struct BoundaryEdge {
    std::size_t row;
    NodeId fixed;
    double g;
  };

  // Everything below is a pure function of the topology, rebuilt by
  // ensure_modes() when topology_revision_ moves.
  std::vector<NodeId> free_nodes_;        // dense row -> node
  std::vector<BoundaryEdge> boundary_;    // free-to-fixed edges, edge order
  std::vector<double> capacitance_;       // C_i per free row
  std::vector<double> conductance_sum_;   // Σg_i per free row (diag of G)
  std::vector<double> lambda_;            // eigenvalues of G̃, zero modes 0
  DenseMatrix state_to_modal_;            // Qᵀ·D
  DenseMatrix input_to_modal_;            // Qᵀ·D⁻¹ (= modal_to_state_ᵀ)
  DenseMatrix modal_to_state_;            // D⁻¹·Q
  std::uint64_t topology_revision_ = 0;   // bumped by add_node/connect/...
  std::uint64_t built_revision_ = ~std::uint64_t{0};

  Stats stats_;
  // Per-call scratch, sized once per topology revision.
  std::vector<double> t_, input_, y_, beta_;
};

}  // namespace dimetrodon::thermal
