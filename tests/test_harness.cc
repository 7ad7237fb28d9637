// Experiment harness: RunReport CSV/JSON serialization (round trip, stable
// column order) and the declarative sweep runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "engine/registry.h"
#include "harness/experiment.h"
#include "harness/presets.h"
#include "model/llm.h"
#include "workload/scenarios.h"
#include "workload/trace.h"

namespace hetis {
namespace {

std::size_t count_cells(const std::string& line) {
  return static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
}

engine::RunReport distinctive_report() {
  engine::RunReport r;
  r.engine = "Hetis";
  r.arrived = 101;
  r.finished = 97;
  r.measured = 89;
  r.norm_latency_mean = 0.012345678901234567;
  r.norm_latency_p95 = 0.08765432109876543;
  r.ttft_p95 = 1.25;
  r.tpot_p95 = 0.0625;
  r.mlp_module_p95 = 0.001953125;
  r.attn_module_p95 = 0.0009765625;
  r.throughput = 12.75;
  r.preemptions = 7;
  r.usable_kv = 123456789012345;
  r.makespan = 47.125;
  r.drain_timeout_hit = true;
  r.slo_set = true;
  r.slo_ttft = 2.0;
  r.slo_tpot = 0.15;
  r.ttft_attainment = 0.9175257731958762;
  r.tpot_attainment = 0.8888888888888888;
  r.slo_attainment = 0.8762886597938144;
  r.goodput = 1.803278688524590;
  return r;
}

TEST(RunReportSerialization, HeaderMatchesRowArity) {
  engine::RunReport r = distinctive_report();
  EXPECT_EQ(count_cells(engine::RunReport::csv_header()), count_cells(r.to_csv_row()));
}

TEST(RunReportSerialization, JsonCarriesEveryCsvColumn) {
  engine::RunReport r = distinctive_report();
  std::string json = r.to_json();
  std::istringstream header(engine::RunReport::csv_header());
  std::string column;
  while (std::getline(header, column, ',')) {
    EXPECT_NE(json.find("\"" + column + "\":"), std::string::npos) << column;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(RunReportSerialization, JsonEscapesSpecialCharacters) {
  engine::RunReport r;
  r.engine = "He\"tis\\v2";
  std::string json = r.to_json();
  EXPECT_NE(json.find("\"engine\":\"He\\\"tis\\\\v2\""), std::string::npos) << json;
}

TEST(Sweep, RunsTheCrossProductInDeclaredOrder) {
  harness::ExperimentSpec spec;
  spec.name = "unit";
  spec.engines = {"hexgen", "splitwise"};
  spec.models = {"Llama-13B"};
  spec.workloads = {{workload::Dataset::kShareGPT, 2.0}};
  spec.horizon = 5.0;
  spec.seed = 17;
  spec.run = engine::RunOptions(900.0);

  int called = 0;
  auto rows = harness::run_sweep(spec, [&called](const harness::SweepRow&) { ++called; });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(called, 2);
  EXPECT_EQ(rows[0].report.engine, "Hexgen");
  EXPECT_EQ(rows[1].report.engine, "Splitwise");
  for (const auto& row : rows) {
    EXPECT_EQ(row.experiment, "unit");
    EXPECT_EQ(row.cluster, "paper");
    EXPECT_EQ(row.model, "Llama-13B");
    EXPECT_EQ(row.dataset, workload::Dataset::kShareGPT);
    EXPECT_DOUBLE_EQ(row.rate, 2.0);
    EXPECT_GT(row.trace_requests, 0u);
    EXPECT_GT(row.report.finished, 0u);
    EXPECT_FALSE(row.report.drain_timeout_hit);
  }
  // Both engines served the identical trace.
  EXPECT_EQ(rows[0].trace_requests, rows[1].trace_requests);
}

TEST(Sweep, ReproducesADirectRegistryRun) {
  // The harness must add nothing on top of engine::make + run_trace: the
  // same (seed, horizon, rate, options) yields bit-identical reports.
  harness::ExperimentSpec spec;
  spec.engines = {"hexgen"};
  spec.models = {"Llama-13B"};
  spec.workloads = {{workload::Dataset::kHumanEval, 5.0}};
  spec.horizon = 6.0;
  spec.seed = 23;
  spec.run = engine::RunOptions(900.0);
  auto rows = harness::run_sweep(spec);
  ASSERT_EQ(rows.size(), 1u);

  workload::TraceOptions topts;
  topts.dataset = workload::Dataset::kHumanEval;
  topts.rate = 5.0;
  topts.horizon = 6.0;
  topts.seed = 23;
  auto trace = workload::build_trace(topts);
  hw::Cluster cluster = harness::cluster_by_name("paper");
  auto eng = engine::make("hexgen", cluster, model::model_by_name("Llama-13B"));
  auto direct = engine::run_trace(*eng, trace, engine::RunOptions(900.0));

  EXPECT_EQ(rows[0].report.to_csv_row(), direct.to_csv_row());
}

TEST(Sweep, PerEngineOptionsAreRouted) {
  harness::ExperimentSpec spec;
  spec.engines = {"hexgen"};
  spec.models = {"Llama-13B"};
  spec.workloads = {{workload::Dataset::kShareGPT, 1.0}};
  spec.horizon = 4.0;
  spec.run = engine::RunOptions(900.0);
  engine::HexgenConfig cfg;
  cfg.max_batch = 4;
  spec.engine_options["hexgen"] = engine::EngineOptions(cfg);
  EXPECT_EQ(harness::run_sweep(spec).size(), 1u);

  // Mis-tagged options must fail loudly, not silently fall back to defaults.
  const engine::HetisConfig hetis_cfg;
  spec.engine_options["hexgen"] = engine::EngineOptions(hetis_cfg);
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);

  // Option routing matches engine names case-insensitively, like the
  // registry: the mis-tagged options must still reach "Hexgen".
  spec.engines = {"Hexgen"};
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);
}

TEST(Sweep, CsvAndJsonRowsAreAligned) {
  harness::ExperimentSpec spec;
  spec.engines = {"hexgen"};
  spec.models = {"Llama-13B"};
  spec.workloads = {{workload::Dataset::kShareGPT, 1.0}};
  spec.horizon = 4.0;
  spec.run = engine::RunOptions(900.0);
  auto rows = harness::run_sweep(spec);

  std::ostringstream csv;
  harness::write_csv(csv, rows);
  std::istringstream lines(csv.str());
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_FALSE(std::getline(lines, extra));
  EXPECT_EQ(header, harness::sweep_csv_header());
  EXPECT_EQ(count_cells(row), count_cells(header));
  // The report section of the row is the engine's own serialization.
  EXPECT_NE(row.find(rows[0].report.to_csv_row()), std::string::npos);

  std::ostringstream json;
  harness::write_json(json, rows);
  const std::string j = json.str();
  EXPECT_EQ(j.front(), '[');
  EXPECT_NE(j.find("\"experiment\":"), std::string::npos);
  EXPECT_NE(j.find("\"report\":{"), std::string::npos);
  EXPECT_NE(j.find(rows[0].report.to_json()), std::string::npos);
}

/// Mixed spec used by the invariance tests: classic rate points plus a
/// scenario point, two engines, small horizons.
harness::ExperimentSpec invariance_spec() {
  harness::ExperimentSpec spec;
  spec.name = "invariance";
  spec.engines = {"hexgen", "splitwise"};
  spec.models = {"Llama-13B"};
  spec.horizon = 4.0;
  spec.seed = 29;
  spec.run = engine::RunOptions(900.0);
  spec.add_rates(workload::Dataset::kShareGPT, {2.0, 4.0});
  spec.add_rates(workload::Dataset::kHumanEval, {6.0});
  spec.add_scenario(
      workload::scenario_preset(workload::Scenario::kBursty, 2.0, spec.horizon, spec.seed));
  return spec;
}

std::string sweep_csv_with_jobs(int jobs) {
  harness::ExperimentSpec spec = invariance_spec();
  spec.jobs = jobs;
  std::ostringstream csv;
  harness::write_csv(csv, harness::run_sweep(spec));
  return csv.str();
}

TEST(ParallelSweep, ThreadCountInvariantByteIdenticalCsv) {
  // Acceptance: the same spec with 1, 2 and 8 jobs (and hardware
  // concurrency) produces byte-identical CSV output.
  const std::string serial = sweep_csv_with_jobs(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(sweep_csv_with_jobs(2), serial);
  EXPECT_EQ(sweep_csv_with_jobs(8), serial);
  EXPECT_EQ(sweep_csv_with_jobs(0), serial);  // 0 = hardware concurrency
}

TEST(ParallelSweep, RowCallbackFiresOncePerCellAndDrainsAreClean) {
  harness::ExperimentSpec spec = invariance_spec();
  spec.jobs = 4;
  std::atomic<int> called{0};
  auto rows = harness::run_sweep(spec, [&called](const harness::SweepRow&) { ++called; });
  ASSERT_EQ(rows.size(), 8u);  // 4 points x 2 engines
  EXPECT_EQ(called.load(), 8);
  for (const auto& row : rows) {
    // Clean drains must report an empty warning -- the message may only be
    // assembled when truncation actually occurred.
    EXPECT_FALSE(row.report.drain_timeout_hit);
    EXPECT_EQ(row.report.warning(), "");
  }
}

TEST(ParallelSweep, RowOrderContractHoldsUnderParallelism) {
  harness::ExperimentSpec spec = invariance_spec();
  spec.jobs = 8;
  auto rows = harness::run_sweep(spec);
  ASSERT_EQ(rows.size(), 8u);
  for (std::size_t pi = 0; pi < 4; ++pi) {
    EXPECT_EQ(rows[2 * pi].report.engine, "Hexgen");
    EXPECT_EQ(rows[2 * pi + 1].report.engine, "Splitwise");
    // Both engines of a point saw the identical trace.
    EXPECT_EQ(rows[2 * pi].trace_requests, rows[2 * pi + 1].trace_requests);
  }
  EXPECT_EQ(rows[6].scenario, "bursty");
  EXPECT_EQ(rows[0].scenario, "poisson");
}

TEST(ParallelSweep, ObserverRequiresSerialExecution) {
  class NullObserver : public engine::RunObserver {};
  NullObserver obs;
  harness::ExperimentSpec spec = invariance_spec();
  spec.run.observer = &obs;
  spec.jobs = 2;
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);
  spec.jobs = 1;  // serial observer runs stay supported
  EXPECT_EQ(harness::run_sweep(spec).size(), 8u);
}

TEST(ParallelSweep, CellExceptionsPropagateFromWorkers) {
  harness::ExperimentSpec spec = invariance_spec();
  spec.models = {"GPT-5"};  // unknown model throws inside the cells
  spec.jobs = 4;
  EXPECT_THROW(harness::run_sweep(spec), std::out_of_range);
  spec.models = {"Llama-13B"};
  spec.jobs = -1;
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);
}

TEST(Sweep, RecordedTracesReplayByteIdentically) {
  // Record a scenario trace, replay it through add_trace_file, and the
  // rows must match serving the generated trace directly.
  workload::ScenarioSpec scen =
      workload::scenario_preset(workload::Scenario::kBursty, 3.0, 5.0, 37);
  auto trace = workload::generate_scenario(scen);
  ASSERT_FALSE(trace.empty());
  const std::string path = ::testing::TempDir() + "harness_replay_trace.csv";
  workload::save_trace(path, trace);

  harness::ExperimentSpec spec;
  spec.engines = {"hexgen"};
  spec.models = {"Llama-13B"};
  spec.horizon = 5.0;
  spec.run = engine::RunOptions(900.0);
  spec.add_trace_file(path, /*rate=*/3.0);
  auto rows = harness::run_sweep(spec);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].scenario, "trace");
  EXPECT_EQ(rows[0].trace_requests, trace.size());

  hw::Cluster cluster = harness::cluster_by_name("paper");
  auto eng = engine::make("hexgen", cluster, model::model_by_name("Llama-13B"));
  auto direct = engine::run_trace(*eng, trace, engine::RunOptions(900.0));
  EXPECT_EQ(rows[0].report.to_csv_row(), direct.to_csv_row());

  // A missing file fails loudly before any cell runs.
  spec.workloads.clear();
  spec.add_trace_file("/nonexistent/trace.csv");
  EXPECT_THROW(harness::run_sweep(spec), std::runtime_error);
}

TEST(Sweep, UnknownClusterModelOrEngineFailLoudly) {
  harness::ExperimentSpec spec;
  spec.engines = {"hexgen"};
  spec.workloads = {{workload::Dataset::kShareGPT, 1.0}};
  spec.horizon = 2.0;
  spec.cluster = "warehouse";
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);
  spec.cluster = "paper";
  spec.models = {"GPT-5"};
  EXPECT_THROW(harness::run_sweep(spec), std::out_of_range);
  spec.models = {"Llama-13B"};
  spec.engines = {"vllm"};
  EXPECT_THROW(harness::run_sweep(spec), std::invalid_argument);
}

}  // namespace
}  // namespace hetis
