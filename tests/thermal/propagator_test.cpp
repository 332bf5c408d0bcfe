// Modal propagator: RcNetwork::advance(dt, k, tail) must be physics-
// equivalent to k sequential step(dt) calls plus a step(tail) (the reference
// stepper), match a direct LU solve of the implicit-Euler system at any dt,
// balance energy, decompose once per topology revision whatever the dts,
// stay deterministic, and preserve the singular-matrix error path. Also
// covers RcNetwork's bounds checks and state save/restore.
#include "thermal/rc_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "lu_reference.hpp"
#include "thermal/floorplan.hpp"

namespace dimetrodon::thermal {
namespace {

constexpr double kParityTolC = 1e-9;

/// Two-mass chain with an ambient boundary: die -> sink -> ambient.
struct Chain {
  RcNetwork net;
  NodeId die, sink, amb;
  Chain() {
    die = net.add_node("die", 0.01, 30.0);
    sink = net.add_node("sink", 10.0, 28.0);
    amb = net.add_fixed_node("ambient", 25.0);
    net.connect_r(die, sink, 1.5);
    net.connect_r(sink, amb, 0.3);
    net.set_power(die, 9.0);
  }
};

/// Multiple fixed nodes: free node squeezed between two boundaries.
struct TwoBoundary {
  RcNetwork net;
  NodeId mass, hot, cold;
  TwoBoundary() {
    mass = net.add_node("mass", 2.0, 40.0);
    hot = net.add_fixed_node("hot", 80.0);
    cold = net.add_fixed_node("cold", 10.0);
    net.connect_r(mass, hot, 2.0);
    net.connect_r(mass, cold, 1.0);
    net.set_power(mass, 3.0);
  }
};

std::vector<double> all_temps(const RcNetwork& net) {
  std::vector<double> t;
  for (NodeId n = 0; n < net.node_count(); ++n) {
    t.push_back(net.temperature(n));
  }
  return t;
}

/// advance(dt, j) from the same start state must match j sequential step(dt)
/// calls at EVERY substep boundary j = 1..max_steps.
template <typename Fixture>
void expect_parity_at_every_boundary(double dt, int max_steps) {
  Fixture ref;
  for (int j = 1; j <= max_steps; ++j) {
    ref.net.step(dt);
    Fixture fast;
    fast.net.advance(dt, static_cast<std::uint64_t>(j));
    const auto want = all_temps(ref.net);
    const auto got = all_temps(fast.net);
    for (std::size_t n = 0; n < want.size(); ++n) {
      EXPECT_NEAR(got[n], want[n], kParityTolC)
          << "node " << n << " after " << j << " substeps of dt=" << dt;
    }
  }
}

TEST(PropagatorTest, ParityAtEveryBoundaryAcrossDtValues) {
  for (const double dt : {0.00025, 0.001, 0.0173, 0.1}) {
    expect_parity_at_every_boundary<Chain>(dt, 70);
  }
}

TEST(PropagatorTest, ParityWithMultipleFixedNodes) {
  expect_parity_at_every_boundary<TwoBoundary>(0.01, 70);
}

TEST(PropagatorTest, ParityOnServerFloorplan) {
  const double dt = 0.00025;
  RcNetwork ref, fast;
  FloorplanParams params;
  const auto rn = build_server_floorplan(ref, params);
  const auto fn = build_server_floorplan(fast, params);
  for (std::size_t i = 0; i < 4; ++i) {
    ref.set_power(rn.die[i], 8.0 + 2.0 * static_cast<double>(i));
    fast.set_power(fn.die[i], 8.0 + 2.0 * static_cast<double>(i));
  }
  ref.set_power(rn.package, 18.0);
  fast.set_power(fn.package, 18.0);
  const std::uint64_t k = 4000;  // one simulated second of 250 µs substeps
  for (std::uint64_t j = 0; j < k; ++j) ref.step(dt);
  fast.advance(dt, k);
  for (NodeId n = 0; n < ref.node_count(); ++n) {
    EXPECT_NEAR(fast.temperature(n), ref.temperature(n), kParityTolC);
  }
}

TEST(PropagatorTest, LongFastForwardConvergesToSteadyState) {
  // (1 + dt·λ)^(−k) -> 0 on every mode: a huge k must land on the steady
  // state without overflow or instability.
  Chain c;
  c.net.advance(0.01, 1u << 24);
  Chain ss;
  ss.net.solve_steady_state();
  for (NodeId n = 0; n < c.net.node_count(); ++n) {
    EXPECT_NEAR(c.net.temperature(n), ss.net.temperature(n), 1e-6);
  }
}

TEST(PropagatorTest, SingleSubstepIsBitIdenticalToStep) {
  Chain a, b;
  for (int i = 0; i < 50; ++i) {
    a.net.step(0.002);
    b.net.advance(0.002, 1);
  }
  for (NodeId n = 0; n < a.net.node_count(); ++n) {
    EXPECT_EQ(a.net.temperature(n), b.net.temperature(n));
  }
}

TEST(PropagatorTest, FastForwardIsBitDeterministic) {
  auto run = [] {
    Chain c;
    for (int i = 0; i < 25; ++i) {
      c.net.advance(0.00025, 37);
      c.net.step(0.00011);  // irregular remainder chunks between
    }
    return all_temps(c.net);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(PropagatorTest, AdvanceZeroStepsIsNoOp) {
  Chain c;
  const auto before = all_temps(c.net);
  c.net.advance(0.001, 0);
  EXPECT_EQ(all_temps(c.net), before);
  EXPECT_EQ(c.net.stats().substeps, 0u);
}

TEST(PropagatorTest, SingularMatrixThrowsOnBothPaths) {
  // Subnormal capacitances and near-zero conductances push the implicit-Euler
  // diagonal below the 1e-300 pivot floor — the degenerate-grid-point failure
  // mode the fault-isolation layer relies on. Both stepping paths must
  // surface the identical error.
  RcNetwork net;
  const NodeId a = net.add_node("a", 1e-306, 20.0);
  const NodeId amb = net.add_fixed_node("amb", 20.0);
  net.connect(a, amb, 1e-305);
  EXPECT_THROW(net.step(1.0), std::runtime_error);
  EXPECT_THROW(net.advance(1.0, 8), std::runtime_error);
  try {
    net.advance(1.0, 8);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thermal step matrix is singular");
  }
}

TEST(PropagatorTest, SingularTailThrowsBeforeTouchingState) {
  // A substep dt small enough to keep C/dt above the pivot floor, then a
  // tail long enough to sink it: the tail's check throws, state untouched.
  RcNetwork net;
  const NodeId a = net.add_node("a", 1e-306, 20.0);
  const NodeId amb = net.add_fixed_node("amb", 20.0);
  net.connect(a, amb, 1e-305);
  net.set_power(a, 1e-300);
  EXPECT_NO_THROW(net.advance(1e-10, 3));
  const double before = net.temperature(a);
  const std::uint64_t substeps = net.stats().substeps;
  EXPECT_THROW(net.advance(1e-10, 3, 1.0), std::runtime_error);
  EXPECT_EQ(net.temperature(a), before);
  EXPECT_EQ(net.stats().substeps, substeps);
}

TEST(PropagatorTest, PrimaryDtFactorizationSurvivesRemainderChunks) {
  // Alternating primary and remainder chunks, alone or as one combined
  // substep-plus-tail pass, never decompose again: the one modal
  // decomposition serves every dt, 1-ulp neighbours included.
  Chain c;
  const double primary = 0.00025;
  c.net.step(primary);
  const double rem = 0.00013;
  for (int i = 0; i < 100; ++i) {
    c.net.step(primary);
    c.net.step(rem);
    c.net.advance(primary, 3, rem);
  }
  EXPECT_EQ(c.net.stats().factorizations, 1u);
  const double ulp = std::nextafter(primary, 1.0);
  for (int i = 0; i < 20; ++i) {
    c.net.advance(primary, 50);
    c.net.advance(ulp, 50);
    c.net.step(ulp);
  }
  EXPECT_EQ(c.net.stats().factorizations, 1u);
}

TEST(PropagatorTest, OperatorCacheIsBoundedUnderUniqueRemainders) {
  // The cached operator is the decomposition itself, so unique remainders
  // cost nothing: 200 distinct tails, stepped alone or after substeps, leave
  // the count at one.
  Chain c;
  const double primary = 0.00025;
  for (int i = 1; i <= 200; ++i) {
    c.net.advance(primary, 5);
    c.net.step(1e-6 * static_cast<double>(i));  // unique remainder each time
    c.net.advance(primary, 3, 7e-7 * static_cast<double>(i));
  }
  EXPECT_EQ(c.net.stats().factorizations, 1u);
  c.net.advance(primary, 5);
  EXPECT_EQ(c.net.stats().factorizations, 1u);
}

TEST(PropagatorTest, FactorizationsCountTopologyRevisionsOnly) {
  // Only a conductance change (a new topology revision) decomposes again,
  // lazily on the next step.
  Chain c;
  const double primary = 0.00025;
  c.net.advance(primary, 5, 1e-6);
  EXPECT_EQ(c.net.stats().factorizations, 1u);
  for (int rev = 1; rev <= 3; ++rev) {
    c.net.set_conductance(c.sink, c.amb, 3.0 + rev);
    c.net.step(primary);
    c.net.advance(primary, 40, 1e-5);
    EXPECT_EQ(c.net.stats().factorizations, 1u + rev);
  }
  // Two re-weights with no step in between cost one decomposition.
  c.net.set_conductance(c.sink, c.amb, 2.0);
  c.net.set_conductance(c.sink, c.amb, 2.5);
  c.net.step(primary);
  EXPECT_EQ(c.net.stats().factorizations, 5u);
}

TEST(PropagatorTest, TopologyChangeInvalidatesOperators) {
  RcNetwork net;
  const NodeId a = net.add_node("a", 1.0, 30.0);
  const NodeId amb = net.add_fixed_node("amb", 20.0);
  net.connect_r(a, amb, 1.0);
  net.advance(0.01, 8);
  const double before = net.temperature(a);
  const NodeId b = net.add_node("b", 1.0, 90.0);
  net.connect_r(a, b, 0.5);
  net.advance(0.01, 8);  // must not reuse the stale 1-node operator
  EXPECT_GT(net.temperature(a), before - 5.0);
  EXPECT_LT(net.temperature(b), 90.0);
  EXPECT_EQ(net.stats().factorizations, 2u);
}

TEST(PropagatorTest, StatsCountWork) {
  // Every advance is one pass: two matvecs into modal coordinates (state and
  // input), one back. Only k ≥ 2 runs count as fast-forward substeps; the
  // tail is one more substep.
  Chain c;
  c.net.advance(0.00025, 12);
  EXPECT_EQ(c.net.stats().substeps, 12u);
  EXPECT_EQ(c.net.stats().fast_forward_steps, 12u);
  EXPECT_EQ(c.net.stats().matvecs, 3u);
  EXPECT_EQ(c.net.stats().factorizations, 1u);
  c.net.step(0.00025);
  EXPECT_EQ(c.net.stats().substeps, 13u);
  EXPECT_EQ(c.net.stats().fast_forward_steps, 12u);
  EXPECT_EQ(c.net.stats().matvecs, 6u);
  c.net.advance(0.00025, 7, 0.00011);
  EXPECT_EQ(c.net.stats().substeps, 21u);
  EXPECT_EQ(c.net.stats().fast_forward_steps, 19u);
  EXPECT_EQ(c.net.stats().matvecs, 9u);
  c.net.advance(0.00025, 0, 0.00011);  // tail only
  EXPECT_EQ(c.net.stats().substeps, 22u);
  EXPECT_EQ(c.net.stats().fast_forward_steps, 19u);
  EXPECT_EQ(c.net.stats().matvecs, 12u);
  EXPECT_EQ(c.net.stats().factorizations, 1u);
}

TEST(PropagatorTest, SubstepAndTailAreBitIdenticalToStep) {
  // The machine's fast path calls advance(substep, k, tail); the reference
  // stepper calls step() per chunk. At k = 1 or a lone tail the two must run
  // the same arithmetic, bit for bit.
  Chain a, b, c;
  for (int i = 0; i < 50; ++i) {
    a.net.step(0.00025);
    b.net.advance(0.00025, 1);
    a.net.step(0.00011);
    b.net.advance(0.00025, 0, 0.00011);
    c.net.advance(0.003, 0, 0.00025);
    c.net.advance(0.001, 0, 0.00011);
  }
  for (NodeId n = 0; n < a.net.node_count(); ++n) {
    EXPECT_EQ(a.net.temperature(n), b.net.temperature(n));
    EXPECT_EQ(a.net.temperature(n), c.net.temperature(n));
  }
}

TEST(PropagatorTest, SubstepsPlusTailMatchSequentialSteps) {
  Chain seq, fast;
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 9; ++j) seq.net.step(0.00025);
    seq.net.step(0.000137);
    fast.net.advance(0.00025, 9, 0.000137);
  }
  for (NodeId n = 0; n < seq.net.node_count(); ++n) {
    EXPECT_NEAR(fast.net.temperature(n), seq.net.temperature(n), kParityTolC);
  }
}

TEST(PropagatorTest, FloatingComponentDriftsLinearly) {
  // A free pair with no path to a fixed node has a λ = 0 mode: under
  // constant power its stored heat ΣC·T grows by P·t exactly, on the
  // closed-form path as well as step by step.
  RcNetwork net;
  const NodeId a = net.add_node("a", 2.0, 40.0);
  const NodeId b = net.add_node("b", 3.0, 30.0);
  net.connect(a, b, 0.7);
  net.set_power(a, 5.0);
  const auto heat = [&] {
    return 2.0 * net.temperature(a) + 3.0 * net.temperature(b);
  };
  const double start = heat();
  net.advance(0.01, 1000);  // 10 s
  EXPECT_NEAR(heat(), start + 50.0, 1e-9);
  net.advance(0.01, 1, 0.5);  // 0.51 s
  EXPECT_NEAR(heat(), start + 52.55, 1e-9);
  // The pair equilibrates: both temperatures converge to a common ramp.
  net.advance(0.01, 100000);
  EXPECT_NEAR(net.temperature(a) - net.temperature(b),
              5.0 * 3.0 / 5.0 / 0.7, 1e-6);
  // It has no steady state, even next to a grounded component.
  const NodeId c = net.add_node("c", 1.0, 25.0);
  const NodeId amb = net.add_fixed_node("amb", 25.0);
  net.connect(c, amb, 2.0);
  EXPECT_THROW(net.solve_steady_state(), std::runtime_error);
}

/// A network plus the capacitances and edges it was built from, so a test
/// can assemble the implicit-Euler system itself.
struct Recorded {
  struct Edge {
    NodeId a, b;
    double g;
  };
  RcNetwork net;
  std::vector<double> cap;  // per node; 0 marks a fixed node
  std::vector<Edge> edges;

  NodeId node(double c, double t) {
    cap.push_back(c);
    return net.add_node("n", c, t);
  }
  NodeId fixed(double t) {
    cap.push_back(0.0);
    return net.add_fixed_node("f", t);
  }
  void connect(NodeId a, NodeId b, double g) {
    edges.push_back(Edge{a, b, g});
    net.connect(a, b, g);
  }
};

/// One implicit-Euler step by direct solve: (C/dt + G)·T' = C/dt·T + r with
/// r = P + G_b·T_fixed over the free nodes. Returns every node's T'.
std::vector<double> lu_step(const Recorded& r, double dt) {
  constexpr std::size_t kFixed = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> row(r.cap.size(), kFixed);
  std::size_t nf = 0;
  for (NodeId n = 0; n < r.cap.size(); ++n) {
    if (r.cap[n] > 0.0) row[n] = nf++;
  }
  DenseMatrix m(nf);
  std::vector<double> rhs(nf);
  for (NodeId n = 0; n < r.cap.size(); ++n) {
    if (row[n] == kFixed) continue;
    m.at(row[n], row[n]) = r.cap[n] / dt;
    rhs[row[n]] = r.cap[n] / dt * r.net.temperature(n) + r.net.power(n);
  }
  for (const Recorded::Edge& e : r.edges) {
    const std::size_t ia = row[e.a];
    const std::size_t ib = row[e.b];
    if (ia != kFixed) m.at(ia, ia) += e.g;
    if (ib != kFixed) m.at(ib, ib) += e.g;
    if (ia != kFixed && ib != kFixed) {
      m.at(ia, ib) -= e.g;
      m.at(ib, ia) -= e.g;
    } else if (ia != kFixed) {
      rhs[ia] += e.g * r.net.temperature(e.b);
    } else if (ib != kFixed) {
      rhs[ib] += e.g * r.net.temperature(e.a);
    }
  }
  testing::ReferenceLu lu;
  EXPECT_TRUE(lu.factor(m));
  lu.solve(rhs);
  std::vector<double> out = all_temps(r.net);
  for (NodeId n = 0; n < r.cap.size(); ++n) {
    if (row[n] != kFixed) out[n] = rhs[row[n]];
  }
  return out;
}

Recorded recorded_chain() {
  Recorded r;
  const NodeId die = r.node(0.01, 30.0);
  const NodeId sink = r.node(10.0, 28.0);
  const NodeId amb = r.fixed(25.0);
  r.connect(die, sink, 1.0 / 1.5);
  r.connect(sink, amb, 1.0 / 0.3);
  return r;
}

/// The server floorplan, node for node and edge for edge in the order
/// build_server_floorplan adds them (full fan speed).
Recorded recorded_server() {
  const FloorplanParams p;
  Recorded r;
  const NodeId amb = r.fixed(p.ambient_c);
  const NodeId hs = r.node(p.hs_capacitance, p.ambient_c);
  const NodeId pkg = r.node(p.pkg_capacitance, p.ambient_c);
  r.connect(hs, amb, 1.0 / p.hs_to_ambient_resistance);
  r.connect(pkg, hs, 1.0 / p.pkg_to_hs_resistance);
  for (std::size_t i = 0; i < p.num_cores; ++i) {
    const NodeId die = r.node(p.die_capacitance, p.ambient_c);
    r.connect(die, pkg, 1.0 / p.die_to_pkg_resistance);
    if (i > 0) r.connect(die, die - 1, 1.0 / p.die_lateral_resistance);
  }
  return r;
}

/// A cluster rack-air network: `racks` air masses, each tied to the fixed
/// CRAC supply and chained to its neighbour.
Recorded recorded_rack_air(std::size_t racks) {
  Recorded r;
  const NodeId crac = r.fixed(25.2);
  for (std::size_t i = 0; i < racks; ++i) {
    const NodeId air = r.node(150.0, 25.2);
    r.connect(air, crac, 1.0 / 0.03);
    if (i > 0) r.connect(air, air - 1, 1.0 / 0.05);
  }
  return r;
}

TEST(PropagatorTest, RecordedServerIsTheBuiltFloorplan) {
  // The oracle below rebuilds the floorplan by hand; pin it to the builder.
  Recorded r = recorded_server();
  RcNetwork built;
  const FloorplanNodes fn = build_server_floorplan(built, FloorplanParams{});
  ASSERT_EQ(built.node_count(), r.net.node_count());
  for (NodeId n = 0; n < built.node_count(); ++n) {
    r.net.set_power(n, r.cap[n] > 0.0 ? 3.0 + static_cast<double>(n) : 0.0);
    built.set_power(n, r.net.power(n));
  }
  EXPECT_EQ(fn.die[3], r.net.node_count() - 1);
  for (int i = 0; i < 20; ++i) {
    r.net.advance(0.00025, 17, 0.0001);
    built.advance(0.00025, 17, 0.0001);
  }
  EXPECT_EQ(all_temps(r.net), all_temps(built));
}

TEST(PropagatorTest, StepMatchesLuSolveAtAnyDt) {
  // Seeded dts log-uniform over 1 ns .. 10 s, random powers and starting
  // temperatures; each modal step must land on the direct solve of the same
  // implicit-Euler system to 1e-12 relative.
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  struct Case {
    const char* name;
    Recorded net;
  };
  Case cases[] = {{"chain", recorded_chain()},
                  {"server", recorded_server()},
                  {"rack-air-100", recorded_rack_air(100)}};
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    Recorded& r = c.net;
    for (NodeId n = 0; n < r.cap.size(); ++n) {
      if (r.cap[n] == 0.0) continue;
      r.net.set_temperature(n, 25.0 + 60.0 * unit(rng));
    }
    for (int i = 0; i < 200; ++i) {
      for (NodeId n = 0; n < r.cap.size(); ++n) {
        if (r.cap[n] > 0.0) r.net.set_power(n, 20.0 * unit(rng));
      }
      const double dt = std::pow(10.0, -9.0 + 10.0 * unit(rng));
      const std::vector<double> want = lu_step(r, dt);
      r.net.step(dt);
      for (NodeId n = 0; n < want.size(); ++n) {
        ASSERT_NEAR(r.net.temperature(n), want[n], 1e-12 * std::fabs(want[n]))
            << "node " << n << " step " << i << " dt " << dt;
      }
    }
    EXPECT_EQ(r.net.stats().factorizations, 1u);
  }
}

TEST(PropagatorTest, EnergyBalanceHoldsForStepAndTail) {
  // Implicit Euler conserves energy discretely: over one step of h,
  //   Σ C_i (T'_i − T_i) = h·(ΣP − Σ_boundary g·(T'_free − T_fixed)).
  // Seeded random networks (random chains with random cross links and
  // boundary ties), dts from 1 µs to 10 s, through step() and through the
  // tail of advance(dt, 0, tail) alike.
  std::mt19937_64 rng(0xe4e7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    Recorded r;
    const NodeId amb = r.fixed(20.0 + 10.0 * unit(rng));
    const std::size_t nf = 1 + static_cast<std::size_t>(12.0 * unit(rng));
    for (std::size_t i = 0; i < nf; ++i) {
      const NodeId n = r.node(std::pow(10.0, -3.0 + 5.0 * unit(rng)),
                              25.0 + 50.0 * unit(rng));
      if (i == 0 || unit(rng) < 0.3) r.connect(n, amb, 0.1 + 5.0 * unit(rng));
      if (i > 0) r.connect(n, n - 1, 0.05 + 10.0 * unit(rng));
      if (i > 1 && unit(rng) < 0.3) r.connect(n, n - 2, 0.5 * unit(rng) + 0.01);
    }
    for (int s = 0; s < 10; ++s) {
      double power = 0.0;
      for (NodeId n = 1; n < r.cap.size(); ++n) {
        r.net.set_power(n, 15.0 * unit(rng));
        power += r.net.power(n);
      }
      const double h = std::pow(10.0, -6.0 + 7.0 * unit(rng));
      const std::vector<double> before = all_temps(r.net);
      if (s % 2 == 0) {
        r.net.step(h);
      } else {
        r.net.advance(0.00025, 0, h);
      }
      double stored = 0.0;
      double stored_scale = 0.0;
      for (NodeId n = 1; n < r.cap.size(); ++n) {
        stored += r.cap[n] * (r.net.temperature(n) - before[n]);
        stored_scale += std::fabs(r.cap[n] * r.net.temperature(n));
      }
      double leaked = 0.0;
      double leak_scale = 0.0;
      for (const Recorded::Edge& e : r.edges) {
        if (e.b != amb) continue;
        const double flow = e.g * (r.net.temperature(e.a) - before[amb]);
        leaked += flow;
        leak_scale += std::fabs(flow);
      }
      const double scale = stored_scale + h * (power + leak_scale);
      EXPECT_NEAR(stored, h * (power - leaked), 1e-9 * scale)
          << "step " << s << " h " << h;
    }
  }
}

// Bounds checks, decomposition reuse and state save/restore on
// block-diagonal (sparse-topology) networks.

/// Block-diagonal topology: `islands` chains of `per_island` free nodes,
/// joined only through one fixed boundary node — the cluster-layer shape
/// (per-rack air networks meeting at the CRAC) that makes the propagator
/// powers sparse.
std::vector<NodeId> build_islands(RcNetwork& net, std::size_t islands,
                                  std::size_t per_island) {
  const NodeId crac = net.add_fixed_node("crac", 18.0);
  std::vector<NodeId> heads;
  for (std::size_t i = 0; i < islands; ++i) {
    NodeId prev = crac;
    for (std::size_t j = 0; j < per_island; ++j) {
      const NodeId n = net.add_node("n", j == 0 ? 50.0 : 30.0, 25.0);
      net.connect_r(prev, n, j == 0 ? 0.4 : 0.15);
      if (j == 0) heads.push_back(n);
      prev = n;
    }
  }
  return heads;
}

TEST(SparsePropagatorTest, ConnectThrowsOutOfRangeOnBadNodeId) {
  RcNetwork net;
  const NodeId a = net.add_node("a", 10.0, 25.0);
  const NodeId b = net.add_node("b", 10.0, 25.0);
  net.connect(a, b, 1.0);  // good path
  EXPECT_THROW(net.connect(a, 99, 1.0), std::out_of_range);
  EXPECT_THROW(net.connect(99, b, 1.0), std::out_of_range);
  EXPECT_THROW(net.connect(a, a, 1.0), std::invalid_argument);  // self-loop
}

TEST(SparsePropagatorTest, SetTemperatureThrowsOutOfRangeOnBadNodeId) {
  RcNetwork net;
  const NodeId a = net.add_node("a", 10.0, 25.0);
  net.set_temperature(a, 30.0);  // good path
  EXPECT_EQ(net.temperature(a), 30.0);
  EXPECT_THROW(net.set_temperature(net.node_count(), 30.0),
               std::out_of_range);
}

TEST(SparsePropagatorTest, SetPowerThrowsOutOfRangeOnBadNodeId) {
  RcNetwork net;
  const NodeId a = net.add_node("a", 10.0, 25.0);
  net.set_power(a, 5.0);  // good path
  EXPECT_EQ(net.power(a), 5.0);
  EXPECT_THROW(net.set_power(net.node_count(), 5.0), std::out_of_range);
}

TEST(SparsePropagatorTest, OperatorCacheHoldsEightDistinctTimesteps) {
  // Eight distinct dts, and a ninth, are different arithmetic but the same
  // modal decomposition: one factorization for the whole run.
  RcNetwork net;
  const auto heads = build_islands(net, 4, 3);
  net.set_power(heads[0], 12.0);
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 8; ++i) net.step(0.001 * (1 + i));
  }
  EXPECT_EQ(net.stats().factorizations, 1u);
  net.step(0.009);
  EXPECT_EQ(net.stats().factorizations, 1u);
}

TEST(SparsePropagatorTest, OneUlpTimestepReusesCachedOperator) {
  // A dt one ulp from its twin reuses the decomposition and lands within
  // rounding of the twin's trajectory.
  RcNetwork net;
  const auto heads = build_islands(net, 10, 4);
  net.set_power(heads[0], 12.0);
  const double dt = 0.00025;
  const double dt_ulp = std::nextafter(dt, 1.0);
  net.advance(dt, 100);
  RcNetwork twin;
  build_islands(twin, 10, 4);
  twin.restore_state(net.save_state());
  for (int i = 0; i < 20; ++i) {
    net.advance(dt, 50);
    twin.advance(dt_ulp, 50);
    net.advance(dt_ulp, 50);
    twin.advance(dt, 50);
  }
  EXPECT_EQ(net.stats().factorizations, 1u);
  EXPECT_EQ(twin.stats().factorizations, 2u);  // restored count + its own
  for (NodeId n = 0; n < net.node_count(); ++n) {
    EXPECT_NEAR(net.temperature(n), twin.temperature(n), 1e-9);
  }
}

TEST(SparsePropagatorTest, SaveRestoreRoundTripsDynamicState) {
  RcNetwork net;
  const auto heads = build_islands(net, 6, 3);
  net.set_power(heads[0], 12.0);
  net.advance(0.001, 300);
  const RcNetwork::State state = net.save_state();
  // Perturb, then restore: temperatures, powers, and stats all come back.
  net.set_power(heads[0], 0.0);
  net.advance(0.001, 100);
  net.restore_state(state);
  for (NodeId n = 0; n < net.node_count(); ++n) {
    EXPECT_EQ(net.temperature(n), state.temps[n]);
  }
  EXPECT_EQ(net.power(heads[0]), 12.0);
  EXPECT_EQ(net.stats().substeps, state.stats.substeps);
  // Restored network continues bit-identically to an undisturbed twin.
  RcNetwork twin;
  build_islands(twin, 6, 3);
  twin.restore_state(state);
  net.advance(0.001, 200);
  twin.advance(0.001, 200);
  for (NodeId n = 0; n < net.node_count(); ++n) {
    EXPECT_EQ(net.temperature(n), twin.temperature(n));
  }
}

TEST(SparsePropagatorTest, RestoreStateRejectsMismatchedTopology) {
  RcNetwork a;
  build_islands(a, 3, 3);
  RcNetwork b;
  build_islands(b, 3, 4);
  EXPECT_THROW(b.restore_state(a.save_state()), std::invalid_argument);
}

}  // namespace
}  // namespace dimetrodon::thermal
