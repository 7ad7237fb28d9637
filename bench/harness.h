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
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
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

/// Rejects a command line the bench does not know before anything runs (a
/// bench that ran anyway would overwrite its JSON snapshot): `--help`
/// prints `usage` and exits 0; an argument that is neither one of
/// `switches` nor one of `valued` followed by its value prints `usage` to
/// stderr and exits 2.
inline void check_flags(int argc, char** argv, std::initializer_list<std::string_view> switches,
                        std::initializer_list<std::string_view> valued, const char* usage) {
  auto known = [](std::initializer_list<std::string_view> flags, std::string_view arg) {
    return std::find(flags.begin(), flags.end(), arg) != flags.end();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      std::printf("%s", usage);
      std::exit(0);
    }
    if (known(switches, arg)) continue;
    if (known(valued, arg) && i + 1 < argc) {
      ++i;
      continue;
    }
    std::fprintf(stderr, "%s '%s'\n%s",
                 known(valued, arg) ? "missing value for" : "unknown argument", argv[i], usage);
    std::exit(2);
  }
}

/// True when the bench was invoked with `flag` (e.g. "--csv", "--progress").
inline bool flag_requested(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// True when the bench was invoked with --csv (dump aligned sweep rows).
inline bool csv_requested(int argc, char** argv) { return flag_requested(argc, argv, "--csv"); }

/// Value of `--key V` style flags; `fallback` when absent.
inline std::string arg_value(int argc, char** argv, const std::string& key,
                             const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == key) return argv[i + 1];
  }
  return fallback;
}

/// Value of a `--key V` flag that must be a finite number with no trailing
/// characters, > 0 (or >= 0 with `allow_zero`); `fallback` when the flag is
/// absent.  Anything else (a missing value included) prints the message and
/// `usage` to stderr and exits 2, the contract of the examples' CLIs.
inline double number_arg(int argc, char** argv, const std::string& key, double fallback,
                         const char* usage, bool allow_zero) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != key) continue;
    const char* text = i + 1 < argc ? argv[i + 1] : "";
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0 || (v == 0 && !allow_zero)) {
      std::fprintf(stderr, "%s expects a %s number, got '%s'\n%s", key.c_str(),
                   allow_zero ? "non-negative" : "positive", text, usage);
      std::exit(2);
    }
    return v;
  }
  return fallback;
}

inline double positive_arg(int argc, char** argv, const std::string& key, double fallback,
                           const char* usage) {
  return number_arg(argc, argv, key, fallback, usage, /*allow_zero=*/false);
}

/// Value of a `--key N` flag that must be a decimal integer > 0, under the
/// same contract as number_arg.
inline std::size_t count_arg(int argc, char** argv, const std::string& key, std::size_t fallback,
                             const char* usage) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != key) continue;
    const char* text = i + 1 < argc ? argv[i + 1] : "";
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    // strtoull accepts a sign and wraps "-5" around, so require a digit first.
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' || errno == ERANGE ||
        v == 0) {
      std::fprintf(stderr, "%s expects a positive integer, got '%s'\n%s", key.c_str(), text,
                   usage);
      std::exit(2);
    }
    return static_cast<std::size_t>(v);
  }
  return fallback;
}

/// Parses `--jobs N` (0 = hardware concurrency); returns `fallback` when
/// absent.  Sweep rows are byte-identical for every value, so figures can
/// default to serial while CI and interactive runs go wide.  A malformed
/// or negative value exits with a usage message (benches have no
/// exception handler around main).
inline int jobs_requested(int argc, char** argv, int fallback = 1) {
  const std::string value = arg_value(argc, argv, "--jobs", "");
  if (value.empty()) return fallback;
  char* end = nullptr;
  long jobs = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || jobs < 0) {
    std::fprintf(stderr, "--jobs expects a non-negative integer, got '%s'\n", value.c_str());
    std::exit(2);
  }
  return static_cast<int>(jobs);
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
