// Telemetry-under-fault-injection: drives a flap-and-recover plus
// backlog-storm scenario and checks that every published gauge and
// counter — per-source staleness, sniffer backlog/lag, poll and shipped
// totals — matches the simulator's ground truth at every step, via the
// same oracle the property suite uses. Also pins the concrete dashboard
// story: staleness stretches while a source flaps down, the storm
// source's backlog piles up, and both recover.

#include <atomic>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "../monitor/oracles.h"
#include "../test_util.h"
#include "core/recency_reporter.h"
#include "monitor/scenario.h"
#include "telemetry/telemetry.h"

namespace trac {
namespace {

using oracle::OracleOutcome;

std::atomic<int64_t> g_ticks{0};
int64_t StepClock() {
  return 1000 * (1 + g_ticks.fetch_add(1, std::memory_order_relaxed));
}

int64_t GaugeValue(MetricRegistry& registry, const std::string& name,
                   const std::string& source) {
  for (const GaugeSample& sample : registry.GaugeSamples()) {
    if (sample.name != name) continue;
    for (const auto& [k, v] : sample.labels) {
      if (k == "source" && v == source) return sample.value;
    }
    if (source.empty() && sample.labels.empty()) return sample.value;
  }
  ADD_FAILURE() << "no gauge " << name << "{source=" << source << "}";
  return -1;
}

class FaultTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    script_.seed = 31337;
    script_.num_sources = 6;
    script_.num_racks = 2;
    script_.step_micros = 5 * Timestamp::kMicrosPerSecond;
    script_.duration_micros = 20 * script_.step_micros;  // 100s
    script_.poll_micros = 5 * Timestamp::kMicrosPerSecond;
    script_.ship_delay_micros = 0;
    script_.heartbeat_micros = 10 * Timestamp::kMicrosPerSecond;
    script_.event_rate = 1.0;
    script_.focus = 3;

    FaultSpec flap;
    flap.kind = FaultSpec::Kind::kFlap;
    flap.start_micros = 10 * Timestamp::kMicrosPerSecond;
    flap.duration_micros = 50 * Timestamp::kMicrosPerSecond;
    flap.period_micros = 20 * Timestamp::kMicrosPerSecond;
    flap.duty = 0.5;
    flap.sources = {0, 1};
    script_.faults.push_back(flap);

    FaultSpec storm;
    storm.kind = FaultSpec::Kind::kStorm;
    storm.start_micros = 20 * Timestamp::kMicrosPerSecond;
    storm.duration_micros = 40 * Timestamp::kMicrosPerSecond;
    storm.delay_micros = 30 * Timestamp::kMicrosPerSecond;
    storm.sources = {2};
    script_.faults.push_back(storm);

    ScenarioRunnerOptions options;
    options.metrics = &metrics_;
    auto runner = ScenarioRunner::Create(&db_, script_, options);
    ASSERT_TRUE(runner.ok()) << runner.status().ToString();
    runner_ = std::move(*runner);
  }

  /// Steps to simulated second `target` (absolute, relative to start).
  void StepTo(int64_t target_seconds) {
    const Timestamp target =
        runner_->start() + target_seconds * Timestamp::kMicrosPerSecond;
    while (!runner_->done() && runner_->now() < target) {
      TRAC_ASSERT_OK(runner_->Step());
      const OracleOutcome telemetry =
          oracle::CheckTelemetry(*runner_, metrics_);
      ASSERT_TRUE(telemetry.ok())
          << "at " << runner_->now().ToString() << ": "
          << telemetry.Summary();
    }
  }

  ScenarioScript script_;
  Database db_;
  MetricRegistry metrics_;
  std::unique_ptr<ScenarioRunner> runner_;
};

TEST_F(FaultTelemetryTest, GaugesMatchOracleTruthThroughFlapAndRecover) {
  // Down phases of the flap (relative seconds): [20,30) and [40,50).
  StepTo(25);
  EXPECT_TRUE(runner_->grid().sniffer("src0000")->paused());
  EXPECT_TRUE(runner_->grid().sniffer("src0001")->paused());
  EXPECT_FALSE(runner_->grid().sniffer("src0003")->paused());

  StepTo(30);
  // 10s into the down phase the DB's view of the flapped source has
  // gone stale by at least the phase length.
  EXPECT_GE(GaugeValue(metrics_, "trac_source_staleness_micros", "src0000"),
            5 * Timestamp::kMicrosPerSecond);

  StepTo(45);
  // The storm source keeps polling but nothing is ship-eligible under a
  // 30s transport delay, so its backlog piles up...
  EXPECT_GE(GaugeValue(metrics_, "trac_sniffer_backlog_records", "src0002"),
            2);

  StepTo(55);
  // ...and once polls inside the storm window start shipping under the
  // 30s delay (t >= 50s: events stamped t-30 become eligible), the lag
  // gauge stretches past the added delay — nothing newer than
  // last_poll - 30s can have shipped.
  EXPECT_GE(GaugeValue(metrics_, "trac_sniffer_lag_micros", "src0002"),
            30 * Timestamp::kMicrosPerSecond);

  StepTo(100);
  ASSERT_TRUE(runner_->done());
  // Everyone recovered: the flap window closed at 60s, the storm at
  // 60s. After 40s of clean polling no source's staleness exceeds a
  // few cadences (heartbeat 10s + poll 5s + emission jitter).
  for (const std::string& id : runner_->source_ids()) {
    EXPECT_LE(GaugeValue(metrics_, "trac_source_staleness_micros", id),
              20 * Timestamp::kMicrosPerSecond)
        << id << " never caught back up";
  }
  EXPECT_LE(GaugeValue(metrics_, "trac_sniffer_backlog_records", "src0002"),
            2);
  EXPECT_EQ(GaugeValue(metrics_, "trac_monitor_sources", ""), 6);
}

TEST_F(FaultTelemetryTest, ReportTelemetryStaysSoundUnderFaults) {
  StepTo(45);  // Mid-flap, mid-storm: the hostile case.

  Tracer tracer;
  Telemetry telemetry{&metrics_, &tracer, &StepClock};
  RecencyReportOptions options;
  options.create_temp_tables = false;
  options.profile = true;  // Feeds the profile-soundness oracle.
  options.telemetry = &telemetry;
  options.relevance.parallelism = 2;
  RecencyReporter reporter(runner_->db(), nullptr);
  auto report = reporter.Run(runner_->FocusedSql(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  OracleOutcome outcome =
      oracle::CheckReport(*runner_, *report, runner_->focused_ids());
  outcome.Merge(oracle::CheckTrace(tracer, *report));
  outcome.Merge(oracle::CheckTelemetry(*runner_, metrics_));
  EXPECT_TRUE(outcome.ok()) << outcome.Summary();
  EXPECT_GT(outcome.checks, 20u);
}

}  // namespace
}  // namespace trac
