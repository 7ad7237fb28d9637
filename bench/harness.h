// Shared experiment front-end for the per-figure bench binaries.
//
// Every binary regenerates one table or figure from the paper's evaluation
// (§7).  Figure benches are declarative: they build a
// harness::ExperimentSpec (engines x rates x datasets on a cluster preset)
// and let harness::run_sweep execute it through the engine registry -- no
// bench includes a concrete engine header.  `--csv` on any spec-driven
// bench dumps the aligned sweep rows instead of the human table.
#pragma once

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/options.h"
#include "engine/registry.h"
#include "harness/experiment.h"
#include "harness/presets.h"
#include "model/llm.h"
#include "workload/trace.h"

// Entry point shared by the google-benchmark-based microbenches
// (bench_micro_core, bench_fig15b_head_mgmt).  When
// google-benchmark is absent CMake skips those targets entirely, so
// this only ever expands with the library present.  Plain benches define
// their own main() and print their figure directly.
#define HETIS_BENCH_MAIN() BENCHMARK_MAIN()

namespace hetis::bench {

inline constexpr std::uint64_t kSeed = 20251116;  // SC'25 start date
inline constexpr Seconds kHorizon = 40.0;         // arrival window per run
inline constexpr Seconds kDrain = 900.0;          // post-arrival drain cap

inline std::vector<workload::Request> make_trace(workload::Dataset ds, double rate,
                                                 Seconds horizon = kHorizon,
                                                 std::uint64_t seed = kSeed) {
  workload::TraceOptions opts;
  opts.dataset = ds;
  opts.rate = rate;
  opts.horizon = horizon;
  opts.seed = seed;
  return workload::build_trace(opts);
}

inline engine::HetisConfig hetis_options() {
  engine::HetisConfig opts;
  opts.workload.decode_batch = 64;
  opts.workload.mean_context = 512;
  return opts;
}

/// Spec preset shared by the figure benches: paper cluster, all three
/// systems, the bench seed/horizon/drain, paper Hetis workload hints.
inline harness::ExperimentSpec paper_spec(const std::string& name, const std::string& model) {
  harness::ExperimentSpec spec;
  spec.name = name;
  spec.models = {model};
  spec.horizon = kHorizon;
  spec.seed = kSeed;
  spec.run = engine::RunOptions(kDrain);
  spec.engine_options["hetis"] = engine::EngineOptions(hetis_options());
  return spec;
}

/// RowCallback printing one completion line per cell to stderr (stderr so
/// --csv stdout stays machine-readable).  Under --jobs > 1 lines arrive in
/// completion order; the [k/total] counter still reaches total.
inline harness::RowCallback progress_printer(std::size_t total) {
  auto count = std::make_shared<std::size_t>(0);  // run_sweep serializes on_row
  return [count, total](const harness::SweepRow& row) {
    ++*count;
    std::fprintf(stderr, "[%zu/%zu] %s %s %s %s rate=%g finished=%zu/%zu\n", *count, total,
                 row.report.engine.c_str(), row.model.c_str(), row.scenario.c_str(),
                 workload::to_string(row.dataset), row.rate, row.report.finished,
                 row.trace_requests);
  };
}

/// The spec's cell count (for progress_printer totals).
inline std::size_t cell_count(const harness::ExperimentSpec& spec) {
  return spec.engines.size() * spec.models.size() * spec.workloads.size() *
         std::max<std::size_t>(1, spec.objectives.size());
}

/// Report of `engine_name` within workload point `point` of a sweep whose
/// spec ran `ne` engines (rows are engine-major within a point).  Looked
/// up by the report's display name so table columns cannot silently
/// desynchronize from the spec's engine order.
inline const engine::RunReport& point_report(const std::vector<harness::SweepRow>& rows,
                                             std::size_t point, std::size_t ne,
                                             const std::string& engine_name) {
  for (std::size_t i = point * ne; i < (point + 1) * ne && i < rows.size(); ++i) {
    if (rows[i].report.engine == engine_name) return rows[i].report;
  }
  throw std::logic_error("no sweep row for engine '" + engine_name + "' at workload point " +
                         std::to_string(point));
}

/// Surfaces drain-timeout truncation on stderr -- a truncated run's
/// percentiles under-count the tail, so never let it pass silently.
inline void warn_truncated(const std::vector<harness::SweepRow>& rows) {
  for (const auto& row : rows) {
    if (row.report.drain_timeout_hit) {
      std::fprintf(stderr, "WARNING: %s\n", row.report.warning().c_str());
    }
  }
}

/// Fig. 8/9/10 driver: normalized latency (s/token) vs request rate, all
/// three systems on the paper cluster.
inline void run_e2e_figure(const char* figure, const std::string& model_name,
                           const std::vector<std::pair<workload::Dataset, std::vector<double>>>&
                               dataset_rates,
                           bool csv = false, int jobs = 1, bool progress = false) {
  harness::ExperimentSpec spec = paper_spec(figure, model_name);
  for (const auto& [ds, rates] : dataset_rates) spec.add_rates(ds, rates);
  spec.jobs = jobs;
  const auto rows =
      harness::run_sweep(spec, progress ? progress_printer(cell_count(spec)) : nullptr);
  warn_truncated(rows);
  if (csv) {
    harness::write_csv(std::cout, rows);
    return;
  }

  // Rows are ordered (workload point) x (engine, spec order: SW, HG, HT).
  const std::size_t ne = spec.engines.size();
  std::size_t point = 0;
  std::printf("=== %s: normalized end-to-end latency (s/token), %s, paper cluster ===\n", figure,
              model_name.c_str());
  std::printf("(seed %llu; horizon %.0fs per point)\n\n",
              static_cast<unsigned long long>(spec.seed), spec.horizon);
  for (const auto& [ds, rates] : dataset_rates) {
    std::printf("--- dataset %s ---\n", workload::to_string(ds));
    std::printf("%8s %12s %12s %12s %10s %10s %10s\n", "rate", "Splitwise", "Hexgen", "Hetis",
                "fin(SW)", "fin(HG)", "fin(HT)");
    for (double rate : rates) {
      const auto& sw = point_report(rows, point, ne, "Splitwise");
      const auto& hg = point_report(rows, point, ne, "Hexgen");
      const auto& ht = point_report(rows, point, ne, "Hetis");
      std::size_t n = rows[point * ne].trace_requests;
      std::printf("%8.1f %12.4f %12.4f %12.4f %9zu/%-zu %9zu/%-zu %9zu/%-zu\n", rate,
                  sw.norm_latency_mean, hg.norm_latency_mean, ht.norm_latency_mean, sw.finished,
                  n, hg.finished, n, ht.finished, n);
      ++point;
    }
    std::printf("\n");
  }
}

}  // namespace hetis::bench
