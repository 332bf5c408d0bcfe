// Fault-isolation contract tests: a thrown run must never kill a sweep.
// Covers the ThreadPool exception containment, the sweep engine's exception
// boundary (structured RunError capture, transient retry with deterministic
// backoff, failed runs never cached), the crash-safe cache-write protocol
// under injected IO errors and mid-protocol crashes, the strict cache
// parser, and the failpoint registry itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/fault_injection.hpp"
#include "runner/result_cache.hpp"
#include "runner/sweep_engine.hpp"
#include "runner/thread_pool.hpp"
#include "workload/cpuburn.hpp"

namespace dimetrodon::runner {
namespace {

namespace fs = std::filesystem;

SweepEngineConfig quiet_config(std::size_t threads, std::string cache_dir) {
  SweepEngineConfig cfg;
  cfg.threads = threads;
  cfg.use_cache = !cache_dir.empty();
  cfg.cache_dir = std::move(cache_dir);
  cfg.progress = false;
  cfg.retry_backoff_ms = 1;  // keep retry tests fast
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("dimetrodon_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// Cheap custom spec: returns a record tagged with its seed, or throws when
/// built with `boom` set.
RunSpec quick_spec(const std::string& tag, std::uint64_t seed,
                   const char* boom = nullptr) {
  RunSpec spec;
  spec.kind = RunSpec::Kind::kCustom;
  spec.custom_tag = tag;
  spec.seed = seed;
  const std::string what = boom == nullptr ? "" : boom;
  spec.custom = [what](const RunSpec& s, const sched::MachineConfig& cfg,
                       const RunContext&) {
    if (!what.empty()) throw std::runtime_error(what);
    RunRecord rec;
    rec.extra = {{"seed", static_cast<double>(s.seed)},
                 {"cfg_seed", static_cast<double>(cfg.seed)}};
    return rec;
  };
  return spec;
}

std::vector<RunSpec> quick_grid(std::size_t n) {
  std::vector<RunSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    specs.push_back(quick_spec("quick[" + std::to_string(i) + "]", 100 + i));
  }
  return specs;
}

std::size_t count_files_matching(const std::string& dir,
                                 const std::string& needle) {
  std::size_t n = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find(needle) != std::string::npos) ++n;
  }
  return n;
}

/// Every fault-injection test disarms on both ends so a failed assertion in
/// one test can't leak armed rules into the next (the registry is
/// process-wide).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::instance().disarm_all(); }
  void TearDown() override { fault::FaultInjector::instance().disarm_all(); }
};

// --- ThreadPool exception containment --------------------------------------

TEST(ThreadPoolFault, ThrowingTasksNeitherHangNorKill) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      pool.submit([] { throw std::runtime_error("task died"); });
    } else {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  pool.wait_idle();  // hangs forever if a throw loses pending accounting
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(pool.task_exception_count(), 50u);
}

TEST(ThreadPoolFault, NonStdExceptionIsContained) {
  ThreadPool pool(2);
  pool.submit([] { throw 42; });
  pool.wait_idle();
  EXPECT_EQ(pool.task_exception_count(), 1u);
}

TEST(ThreadPoolFault, InlineModeContainsThrows) {
  ThreadPool pool(0);
  int ran = 0;
  pool.submit([] { throw std::runtime_error("inline death"); });
  pool.submit([&ran] { ++ran; });  // pool must still be usable
  pool.wait_idle();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pool.task_exception_count(), 1u);
}

TEST(ThreadPoolFault, PoolReusableAcrossThrowingRounds) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([] { throw std::runtime_error("round death"); });
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 10 * (round + 1));
  }
  EXPECT_EQ(pool.task_exception_count(), 30u);
}

// --- sweep engine exception boundary ---------------------------------------

TEST_F(FaultTest, SweepSurvivesThrowingRun) {
  auto specs = quick_grid(5);
  specs[2] = quick_spec("quick[2]", 102, "boom: probability out of range");
  SweepEngine engine(sched::MachineConfig{}, quiet_config(2, ""));

  const SweepResult sweep = engine.run(specs);
  ASSERT_EQ(sweep.size(), 5u);
  EXPECT_FALSE(sweep.all_ok());
  ASSERT_EQ(sweep.errors.size(), 1u);

  const RunError& e = sweep.errors[0];
  EXPECT_EQ(e.spec_index, 2u);
  EXPECT_EQ(e.spec_label, "quick[2]");
  EXPECT_EQ(e.what, "boom: probability out of range");
  EXPECT_EQ(e.key_hex, engine.key_for(specs[2]).hex());
  EXPECT_EQ(e.seed, 102u);
  EXPECT_FALSE(e.transient);
  EXPECT_EQ(e.attempts, 1u);  // deterministic failures are not retried

  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].ok(), i != 2) << i;
    if (i != 2) {
      EXPECT_EQ(sweep[i].metric("seed"), 100.0 + i) << i;
    }
  }
  EXPECT_EQ(sweep.metrics.executed, 4u);
  EXPECT_EQ(sweep.metrics.failed, 1u);
  EXPECT_EQ(sweep.metrics.completed, 5u);
  EXPECT_EQ(sweep.metrics.in_flight, 0u);
  EXPECT_EQ(sweep.metrics.counters.runs_failed, 1u);
  ASSERT_EQ(sweep.metrics.errors.size(), 1u);
  EXPECT_EQ(sweep.metrics.errors[0].spec_index, 2u);
}

TEST_F(FaultTest, NonStdThrowIsCapturedAsRunError) {
  std::vector<RunSpec> specs = {quick_spec("unknown-throw", 7)};
  SweepEngine engine(sched::MachineConfig{}, quiet_config(1, ""));
  fault::FaultRule rule;
  rule.action = fault::Action::kThrowUnknown;
  fault::FaultInjector::instance().arm("run.execute", rule);

  const SweepResult sweep = engine.run(specs);
  ASSERT_EQ(sweep.errors.size(), 1u);
  EXPECT_EQ(sweep.errors[0].what, "(non-std exception)");
  EXPECT_FALSE(sweep.errors[0].transient);
  EXPECT_EQ(sweep.errors[0].attempts, 1u);
}

TEST_F(FaultTest, TransientFaultRetriedToSuccess) {
  std::vector<RunSpec> specs = {quick_spec("transient-recovers", 7)};
  SweepEngine engine(sched::MachineConfig{}, quiet_config(1, ""));
  // Fire on the first two arrivals; attempt 3 (within the default retry
  // limit of 2 extra attempts) succeeds.
  fault::FaultRule rule;
  rule.action = fault::Action::kThrowTransient;
  rule.count = 2;
  fault::FaultInjector::instance().arm("run.execute", rule);

  const SweepResult sweep = engine.run(specs);
  EXPECT_TRUE(sweep.all_ok());
  EXPECT_EQ(sweep.metrics.executed, 1u);
  EXPECT_EQ(sweep.metrics.failed, 0u);
  EXPECT_EQ(sweep.metrics.counters.runs_retried, 2u);
  EXPECT_EQ(sweep.metrics.counters.runs_failed, 0u);
  EXPECT_EQ(sweep[0].metric("seed"), 7.0);
}

TEST_F(FaultTest, TransientFaultExhaustsRetryBudget) {
  std::vector<RunSpec> specs = {quick_spec("transient-exhausts", 7)};
  SweepEngineConfig cfg = quiet_config(1, "");
  cfg.run_retry_limit = 2;
  SweepEngine engine(sched::MachineConfig{}, cfg);
  fault::FaultRule rule;
  rule.action = fault::Action::kThrowTransient;
  fault::FaultInjector::instance().arm("run.execute", rule);

  const SweepResult sweep = engine.run(specs);
  ASSERT_EQ(sweep.errors.size(), 1u);
  EXPECT_TRUE(sweep.errors[0].transient);
  EXPECT_EQ(sweep.errors[0].attempts, 3u);  // initial try + 2 retries
  EXPECT_EQ(sweep.metrics.counters.runs_retried, 2u);
  EXPECT_EQ(sweep.metrics.counters.runs_failed, 1u);
  EXPECT_GE(fault::FaultInjector::instance().hits("run.execute"), 3u);
}

// A degenerate thermal configuration — subnormal capacitances and near-zero
// conductances push every LU pivot below the singularity threshold — must
// surface as a phase-annotated RunError, not a dead sweep. This is the
// paper-reproduction failure mode the layer exists for: one bad grid point
// in a figure sweep.
TEST_F(FaultTest, SingularThermalConfigFailsOnlyItsOwnRun) {
  sched::MachineConfig degenerate;
  degenerate.start_at_idle_equilibrium = false;  // defer solve to the run
  degenerate.floorplan.die_capacitance = 1e-306;
  degenerate.floorplan.pkg_capacitance = 1e-306;
  degenerate.floorplan.hs_capacitance = 1e-306;
  degenerate.floorplan.die_to_pkg_resistance = 1e302;
  degenerate.floorplan.die_lateral_resistance = 1e302;
  degenerate.floorplan.pkg_to_hs_resistance = 1e302;
  degenerate.floorplan.hs_to_ambient_resistance = 1e302;

  harness::MeasurementConfig mc;
  mc.max_settle_iterations = 1;
  mc.settle_chunk = sim::from_sec(1);
  mc.post_settle_run = sim::from_ms(100);
  mc.measure_window = sim::from_sec(1);

  RunSpec bad;
  bad.workload_key = "cpuburn:2";
  bad.workload = [] { return std::make_unique<workload::CpuBurnFleet>(2); };
  bad.actuation = harness::ActuationSpec::none();
  bad.measurement = mc;
  bad.seed = 0x5eed;
  bad.machine = degenerate;

  std::vector<RunSpec> specs = {quick_spec("healthy[0]", 1), bad,
                                quick_spec("healthy[1]", 2)};
  const std::string dir = fresh_dir("singular_config");
  SweepEngine engine(sched::MachineConfig{}, quiet_config(2, dir));

  const SweepResult sweep = engine.run(specs);
  ASSERT_EQ(sweep.errors.size(), 1u);
  EXPECT_EQ(sweep.errors[0].spec_index, 1u);
  EXPECT_EQ(sweep.errors[0].what, "settle: thermal step matrix is singular");
  EXPECT_FALSE(sweep.errors[0].transient);
  EXPECT_TRUE(sweep[0].ok());
  EXPECT_TRUE(sweep[2].ok());
  // The healthy points are cached; the singular one left no entry behind.
  ResultCache cache(dir, true);
  EXPECT_TRUE(fs::exists(cache.path_for(engine.key_for(specs[0]))));
  EXPECT_TRUE(fs::exists(cache.path_for(engine.key_for(specs[2]))));
  EXPECT_FALSE(fs::exists(cache.path_for(engine.key_for(bad))));
  fs::remove_all(dir);
}

// The acceptance flow: one grid point fails, the sweep finishes and records
// exactly one structured error (also in the metrics JSON), the failed spec
// has no cache entry; after the fault is fixed, a re-run recomputes only
// that point and a third run is served entirely from cache.
TEST_F(FaultTest, FailedPointRecoversAcrossReruns) {
  const auto specs = quick_grid(4);
  const std::string dir = fresh_dir("fail_fix_rerun");
  SweepEngineConfig cfg = quiet_config(2, dir);
  cfg.metrics_json_path = dir + "/sweep_metrics.json";
  SweepEngine engine(sched::MachineConfig{}, cfg);

  // Keyed rule: only the grid point whose cache key matches fails.
  const CacheKey bad_key = engine.key_for(specs[1]);
  fault::FaultRule rule;
  rule.action = fault::Action::kThrowLogic;
  rule.key = bad_key.hi;
  fault::FaultInjector::instance().arm("run.execute", rule);

  const SweepResult broken = engine.run(specs);
  ASSERT_EQ(broken.errors.size(), 1u);
  EXPECT_EQ(broken.errors[0].spec_index, 1u);
  EXPECT_EQ(broken.metrics.executed, 3u);
  EXPECT_EQ(broken.metrics.failed, 1u);
  ResultCache cache(dir, true);
  EXPECT_FALSE(fs::exists(cache.path_for(bad_key)));

  // The structured error landed in the sweep's metrics JSON.
  std::ifstream in(cfg.metrics_json_path);
  ASSERT_TRUE(in.good());
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"runs_failed\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"spec_index\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"spec_label\": \"quick[1]\""), std::string::npos);
  EXPECT_NE(json.find("\"key\": \"" + bad_key.hex() + "\""),
            std::string::npos);

  // "Fix the config": disarm, re-run. Only the failed point recomputes.
  fault::FaultInjector::instance().disarm_all();
  const SweepResult fixed = engine.run(specs);
  EXPECT_TRUE(fixed.all_ok());
  EXPECT_EQ(fixed.metrics.cache_hits, 3u);
  EXPECT_EQ(fixed.metrics.executed, 1u);

  const SweepResult warm = engine.run(specs);
  EXPECT_TRUE(warm.all_ok());
  EXPECT_EQ(warm.metrics.cache_hits, 4u);
  EXPECT_EQ(warm.metrics.executed, 0u);
  fs::remove_all(dir);
}

// --- crash-safe cache writes ------------------------------------------------

TEST_F(FaultTest, CacheWriteIoErrorIsRetried) {
  const auto specs = quick_grid(1);
  const std::string dir = fresh_dir("cache_write_retry");
  SweepEngine engine(sched::MachineConfig{}, quiet_config(1, dir));
  fault::FaultRule rule;
  rule.action = fault::Action::kIoError;
  rule.count = 1;  // first write attempt fails, the retry succeeds
  fault::FaultInjector::instance().arm("cache.write", rule);

  const SweepResult sweep = engine.run(specs);
  EXPECT_TRUE(sweep.all_ok());
  EXPECT_EQ(sweep.metrics.counters.cache_write_retries, 1u);
  EXPECT_TRUE(fs::exists(
      ResultCache(dir, true).path_for(engine.key_for(specs[0]))));

  fault::FaultInjector::instance().disarm_all();
  const SweepResult warm = engine.run(specs);
  EXPECT_EQ(warm.metrics.cache_hits, 1u);  // the retried entry is valid
  fs::remove_all(dir);
}

TEST_F(FaultTest, CacheWriteGivesUpAfterRetryBudget) {
  const auto specs = quick_grid(1);
  const std::string dir = fresh_dir("cache_write_giveup");
  SweepEngineConfig cfg = quiet_config(1, dir);
  cfg.cache_write_retry_limit = 2;
  SweepEngine engine(sched::MachineConfig{}, cfg);
  fault::FaultRule rule;
  rule.action = fault::Action::kIoError;
  fault::FaultInjector::instance().arm("cache.write", rule);

  // The run itself still succeeds: the cache is best-effort.
  const SweepResult sweep = engine.run(specs);
  EXPECT_TRUE(sweep.all_ok());
  EXPECT_EQ(sweep.metrics.counters.cache_write_retries, 2u);
  EXPECT_FALSE(fs::exists(
      ResultCache(dir, true).path_for(engine.key_for(specs[0]))));
  // The abandoned store cleaned up its temp file.
  EXPECT_EQ(count_files_matching(dir, ".tmp."), 0u);
  fs::remove_all(dir);
}

TEST_F(FaultTest, CrashBeforeRenameLeavesNoTornRecord) {
  const auto specs = quick_grid(1);
  const std::string dir = fresh_dir("cache_crash_rename");
  SweepEngine engine(sched::MachineConfig{}, quiet_config(1, dir));
  const std::string final_path =
      ResultCache(dir, true).path_for(engine.key_for(specs[0]));
  fault::FaultRule rule;
  rule.action = fault::Action::kCrash;
  rule.count = 1;
  fault::FaultInjector::instance().arm("cache.rename", rule);

  const SweepResult sweep = engine.run(specs);
  EXPECT_TRUE(sweep.all_ok());
  // Killed between tmp-write and rename: the final path never existed, only
  // the pid-suffixed temp file survives the "crash".
  EXPECT_FALSE(fs::exists(final_path));
  EXPECT_EQ(count_files_matching(dir, ".tmp."), 1u);

  // Post-"reboot" run: a clean miss, recomputed and stored atomically.
  fault::FaultInjector::instance().disarm_all();
  const SweepResult retry = engine.run(specs);
  EXPECT_TRUE(retry.all_ok());
  EXPECT_EQ(retry.metrics.executed, 1u);
  EXPECT_TRUE(fs::exists(final_path));
  const SweepResult warm = engine.run(specs);
  EXPECT_EQ(warm.metrics.cache_hits, 1u);
  fs::remove_all(dir);
}

// --- strict cache parser -----------------------------------------------------

RunRecord sample_record() {
  RunRecord rec;
  rec.result.label = "p=0.50 L=25ms";
  rec.result.avg_sensor_temp_c = 51.0625;
  rec.result.throughput = 0.875;
  workload::WebWorkload::QosStats qos;
  qos.good = 10;
  qos.total = 12;
  rec.result.qos = qos;
  rec.result.counters.injections = 42;
  rec.samples = {0.25, 0.5};
  rec.extra = {{"alpha", 1.5}};
  return rec;
}

TEST(ResultCacheParser, RejectsEveryNonBareDecimalInteger) {
  const std::string payload = ResultCache::serialize_record(sample_record());
  const std::string target = "qos.good 10\n";
  const auto pos = payload.find(target);
  ASSERT_NE(pos, std::string::npos);
  // Each tamper would parse under plain strtoull: negatives wrap to 2^64-1,
  // whitespace and '+' are skipped, "0x" switches radix, trailing junk is
  // silently ignored, and 21 digits overflow.
  const std::vector<std::string> bad = {
      "qos.good -1\n",         "qos.good  10\n",
      "qos.good +10\n",        "qos.good 0x10\n",
      "qos.good 10 \n",        "qos.good 10x\n",
      "qos.good \t10\n",       "qos.good 109999999999999999999\n",
      "qos.good \n",           "qos.good 1.0\n",
  };
  for (const std::string& line : bad) {
    std::string tampered = payload;
    tampered.replace(pos, target.size(), line);
    EXPECT_FALSE(ResultCache::parse_record(tampered).has_value())
        << "accepted: " << line;
  }
  // Sanity: the untampered payload round-trips.
  ASSERT_TRUE(ResultCache::parse_record(payload).has_value());
}

TEST(ResultCacheParser, TruncationAtEveryByteIsRejected) {
  const std::string payload = ResultCache::serialize_record(sample_record());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(
        ResultCache::parse_record(payload.substr(0, cut)).has_value())
        << "cut=" << cut;
  }
  EXPECT_TRUE(ResultCache::parse_record(payload).has_value());
}

TEST(ResultCacheParser, TrailingJunkAfterTerminatorIsRejected) {
  const std::string payload = ResultCache::serialize_record(sample_record());
  EXPECT_FALSE(ResultCache::parse_record(payload + "x\n").has_value());
  EXPECT_FALSE(ResultCache::parse_record(payload + "\n").has_value());
}

// --- failpoint registry ------------------------------------------------------

TEST_F(FaultTest, SpecStringArmsRulesWithTriggerWindow) {
  auto& inj = fault::FaultInjector::instance();
  EXPECT_EQ(inj.arm_from_spec("run.execute=transient,after=1,count=2"), 1u);
  EXPECT_NO_THROW(fault::maybe_throw("run.execute"));  // after=1 skips one
  EXPECT_THROW(fault::maybe_throw("run.execute"), fault::TransientError);
  EXPECT_THROW(fault::maybe_throw("run.execute"), fault::TransientError);
  EXPECT_NO_THROW(fault::maybe_throw("run.execute"));  // count exhausted
  EXPECT_EQ(inj.hits("run.execute"), 4u);
}

TEST_F(FaultTest, SpecStringSupportsKeyedIoRules) {
  auto& inj = fault::FaultInjector::instance();
  EXPECT_EQ(inj.arm_from_spec("cache.write=io,key=12ab"), 1u);
  EXPECT_EQ(fault::io_fault("cache.write", 0x9999), std::nullopt);
  EXPECT_EQ(fault::io_fault("cache.write", 0x12ab), fault::Action::kIoError);
  EXPECT_EQ(fault::io_fault("cache.rename", 0x12ab), std::nullopt);
}

TEST_F(FaultTest, MalformedSpecRulesAreDropped) {
  auto& inj = fault::FaultInjector::instance();
  EXPECT_EQ(inj.arm_from_spec("nonsense"), 0u);
  EXPECT_EQ(inj.arm_from_spec("site=explode"), 0u);        // unknown action
  EXPECT_EQ(inj.arm_from_spec("=logic"), 0u);              // empty site
  EXPECT_EQ(inj.arm_from_spec("s=logic,after=xyz"), 0u);   // bad clause
  EXPECT_EQ(inj.arm_from_spec("a=logic;b=bogus;c=io"), 2u);
  EXPECT_NO_THROW(fault::maybe_throw("b"));
  EXPECT_THROW(fault::maybe_throw("a"), std::runtime_error);
}

TEST_F(FaultTest, UnarmedSitesAreFree) {
  fault::FaultInjector::instance().disarm_all();
  EXPECT_NO_THROW(fault::maybe_throw("run.execute"));
  EXPECT_EQ(fault::io_fault("cache.write"), std::nullopt);
}

}  // namespace
}  // namespace dimetrodon::runner
