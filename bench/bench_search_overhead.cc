// Search scalability: wall-clock planning time and plan quality of the
// placement tiers (planner/planner.h) from the paper cluster up to the
// datacenter presets.
//
// The paper's §7.4 reports the exhaustive search at 4s on 12 GPUs and 15s
// on 160; the ROADMAP's north star is datacenter-scale serving, where the
// exhaustive tier is the oracle and the LP/flow tier must plan a 256-GPU
// pod in under a second while staying within a few percent of the oracle
// wherever the oracle is affordable.  This bench is the scoreboard for
// that trade: every row plans one (cluster, planner) cell and reports plan
// wall-clock, LP effort and the objective score; flow rows on oracle-sized
// clusters also report `score_vs_oracle` (relative score excess over the
// exhaustive plan, 0 = matched).  Committed as BENCH_search.json so plan
// quality and planning time are tracked PR-over-PR like bench_simspeed.
//
// --check PATH is the plan-quality guard: against a committed
// BENCH_search.json it exits 2 unless every row of each has a row in the
// other, and fails when a row's score is worse than the reference's by more
// than --tolerance (relative; 0.05 is the oracle-equivalence acceptance
// bound), its score_vs_oracle worsens by more than --tolerance, or a flow row
// plans slower than --budget-ms (1000 ms, the dc256 acceptance criterion).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "harness.h"
#include "parallel/evaluator.h"
#include "parallel/objective.h"
#include "planner/planner.h"

namespace {

using namespace hetis;

struct SearchRow {
  std::string cluster;
  std::string planner;
  std::string objective;
  int devices = 0;
  double plan_ms = 0;
  std::size_t lp_solves = 0;
  int evaluated = 0;
  double score = 0;
  // Relative score excess of this plan over the exhaustive oracle's on the
  // same cluster (0 = matched the oracle; only flow rows on clusters where
  // the oracle ran carry a value, others write 0).
  double score_vs_oracle = 0;
};

constexpr const char* kCsvHeader =
    "cluster,planner,objective,devices,plan_ms,lp_solves,evaluated,"
    "score,score_vs_oracle";

std::string row_csv(const SearchRow& r) {
  std::ostringstream oss;
  oss << engine::csv_field(r.cluster) << ',' << engine::csv_field(r.planner) << ','
      << engine::csv_field(r.objective) << ',' << r.devices << ','
      << engine::csv_double(r.plan_ms) << ',' << r.lp_solves << ',' << r.evaluated << ','
      << engine::csv_double(r.score) << ',' << engine::csv_double(r.score_vs_oracle);
  return oss.str();
}

std::string row_json(const SearchRow& r) {
  std::ostringstream oss;
  oss << "{\"cluster\":\"" << engine::json_escape(r.cluster) << "\",\"planner\":\""
      << engine::json_escape(r.planner) << "\",\"objective\":\""
      << engine::json_escape(r.objective) << "\",\"devices\":" << r.devices
      << ",\"plan_ms\":" << engine::csv_double(r.plan_ms) << ",\"lp_solves\":" << r.lp_solves
      << ",\"evaluated\":" << r.evaluated
      << ",\"score\":" << engine::csv_double(r.score)
      << ",\"score_vs_oracle\":" << engine::csv_double(r.score_vs_oracle) << "}";
  return oss.str();
}

parallel::WorkloadProfile bench_profile() {
  parallel::WorkloadProfile p;
  p.decode_batch = 64;
  p.mean_context = 512;
  return p;
}

// Scores a finished plan through the same evaluator + objective the
// planners search with, so rows compare plans, not search internals.
double plan_score(const hw::Cluster& cluster, const model::ModelSpec& model,
                  const parallel::ParallelPlan& plan, const std::string& objective) {
  parallel::PlanEvaluator evaluator(cluster, model);
  return parallel::make_objective(objective)->score(
      evaluator.evaluate(plan, bench_profile()));
}

SearchRow timed_plan(const std::string& cluster_name, const std::string& planner_name,
                     const std::string& objective) {
  const hw::Cluster cluster = harness::cluster_by_name(cluster_name);
  const model::ModelSpec& model = model::llama_70b();
  parallel::ParallelizerOptions opts;
  opts.objective.name = objective;

  auto planner = planner::make(planner_name, cluster, model, opts);
  const auto t0 = std::chrono::steady_clock::now();
  parallel::ParallelPlan plan = planner->plan(bench_profile());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const parallel::SearchDiagnostics& diag = planner->diagnostics();

  SearchRow row;
  row.cluster = cluster_name;
  row.planner = planner_name;
  row.objective = objective;
  row.devices = cluster.num_devices();
  row.plan_ms = wall * 1e3;
  row.lp_solves = diag.lp_solves;
  row.evaluated = diag.configurations_evaluated;
  row.score = plan_score(cluster, model, plan, objective);
  return row;
}

/// Minimal scanner for a BENCH_search.json written by this bench: extracts
/// (cluster, planner, objective, score, score_vs_oracle) per row.
struct RefRow {
  std::string cluster;
  std::string planner;
  std::string objective;
  double score = 0;
  double vs_oracle = 0;
};

std::vector<RefRow> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ERROR: --check cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::vector<RefRow> rows;
  auto grab = [&text](std::size_t from, const std::string& key) -> std::string {
    const std::string needle = "\"" + key + "\":";
    std::size_t k = text.find(needle, from);
    if (k == std::string::npos) return "";
    k += needle.size();
    bool quoted = k < text.size() && text[k] == '"';
    if (quoted) ++k;
    std::size_t end = text.find_first_of(quoted ? "\"" : ",}", k);
    if (end == std::string::npos) return "";
    return text.substr(k, end - k);
  };
  auto number = [&grab](std::size_t from, const std::string& key) {
    const std::string v = grab(from, key);
    return v.empty() ? 0.0 : std::stod(v);
  };
  std::size_t pos = 0;
  while ((pos = text.find("{\"cluster\":", pos)) != std::string::npos) {
    RefRow r;
    r.cluster = grab(pos, "cluster");
    r.planner = grab(pos, "planner");
    r.objective = grab(pos, "objective");
    r.score = number(pos, "score");
    r.vs_oracle = number(pos, "score_vs_oracle");
    if (!r.cluster.empty() && !r.planner.empty()) rows.push_back(r);
    ++pos;
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetis;
  const cli::Args args =
      cli::Parser("bench_search_overhead")
          .flag("--csv", "dump the rows instead of the table")
          .flag("--csv-header", "print the CSV header and exit")
          .option("--out", "PATH", "JSON artifact path (default BENCH_search.json; - disables)")
          .option("--check", "PATH", "exit 2 when a row regresses against this reference JSON")
          .option("--tolerance", "F", "allowed relative score excess, >= 0 (default 0.05)")
          .option("--budget-ms", "N", "flow planning budget under --check, > 0 (default 1000)")
          .parse(argc, argv);
  if (args.has("--csv-header")) {
    std::printf("%s\n", kCsvHeader);
    return 0;
  }
  const std::string out_path = args.text("--out", "BENCH_search.json");
  const std::string check_path = args.text("--check", "");
  const double tolerance = args.non_negative("--tolerance", 0.05);
  const double budget_ms = args.positive("--budget-ms", 1000.0);
  const bool csv = args.has("--csv");

  // The exhaustive oracle runs wherever its cost is tolerable (the paper's
  // own 160-GPU scale test took 15s); beyond that only the flow tier plans
  // and its score stands alone.
  const std::vector<std::string> clusters = {"paper", "dc64", "dc128", "dc256"};
  constexpr int kOracleMaxDevices = 128;
  const std::string objective = "throughput";

  std::vector<SearchRow> rows;
  for (const std::string& cluster_name : clusters) {
    const int devices = harness::cluster_by_name(cluster_name).num_devices();
    double oracle_score = 0;
    bool have_oracle = false;
    if (devices <= kOracleMaxDevices) {
      rows.push_back(timed_plan(cluster_name, "exhaustive", objective));
      oracle_score = rows.back().score;
      have_oracle = true;
      if (!csv) {
        std::fprintf(stderr, "%s/exhaustive: %.1f ms, score %.4g\n", cluster_name.c_str(),
                     rows.back().plan_ms, rows.back().score);
      }
    }
    SearchRow flow = timed_plan(cluster_name, "flow", objective);
    if (have_oracle && oracle_score != 0) {
      // Relative excess with lower-is-better scores of either sign.
      flow.score_vs_oracle = (flow.score - oracle_score) / std::abs(oracle_score);
    }
    if (!csv) {
      std::fprintf(stderr, "%s/flow: %.1f ms, score %.4g, vs oracle %+.3f\n",
                   cluster_name.c_str(), flow.plan_ms, flow.score, flow.score_vs_oracle);
    }
    rows.push_back(std::move(flow));
  }

  if (out_path != "-") {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "ERROR: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\"bench\":\"search\",\"model\":\"Llama-70B\",\"objective\":\"" << objective
        << "\",\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i) out << ",";
      out << row_json(rows[i]);
    }
    out << "]}\n";
  }

  if (csv) {
    std::printf("%s\n", kCsvHeader);
    for (const auto& r : rows) std::printf("%s\n", row_csv(r).c_str());
  } else {
    std::printf("=== Search scalability: Llama-70B, %s objective ===\n", objective.c_str());
    std::printf("%-8s %-11s %8s %10s %10s %10s %10s %14s\n", "cluster", "planner", "devices",
                "plan(ms)", "lp_solves", "evaluated", "score", "vs_oracle");
    for (const auto& r : rows) {
      std::printf("%-8s %-11s %8d %10.1f %10zu %10d %10.4g %14.3f\n", r.cluster.c_str(),
                  r.planner.c_str(), r.devices, r.plan_ms, r.lp_solves, r.evaluated, r.score,
                  r.score_vs_oracle);
    }
    if (out_path != "-") std::printf("wrote %s\n", out_path.c_str());
  }

  // Threshold guard: plan quality is deterministic, so neither a row's
  // score nor its score_vs_oracle may worsen past the committed baseline by
  // more than the tolerance, and every row must have its counterpart (a
  // stale reference gates nothing); flow planning time must stay inside the
  // absolute budget (wall-clock, so the bound is generous rather than a
  // ratio against a noisy baseline).
  if (!check_path.empty()) {
    const std::vector<RefRow> ref = load_reference(check_path);
    if (ref.empty()) {
      std::fprintf(stderr, "ERROR: --check found no rows in %s\n", check_path.c_str());
      return 2;
    }
    auto same_cell = [](const RefRow& r, const SearchRow& cur) {
      return cur.cluster == r.cluster && cur.planner == r.planner && cur.objective == r.objective;
    };
    int failures = 0;
    for (const SearchRow& cur : rows) {
      if (std::none_of(ref.begin(), ref.end(),
                       [&](const RefRow& r) { return same_cell(r, cur); })) {
        std::fprintf(stderr, "FAIL: %s/%s/%s has no reference row in %s\n", cur.cluster.c_str(),
                     cur.planner.c_str(), cur.objective.c_str(), check_path.c_str());
        ++failures;
      }
    }
    for (const RefRow& r : ref) {
      const auto it = std::find_if(rows.begin(), rows.end(),
                                   [&](const SearchRow& cur) { return same_cell(r, cur); });
      if (it == rows.end()) {
        std::fprintf(stderr, "FAIL: reference row %s/%s/%s has no row in this run\n",
                     r.cluster.c_str(), r.planner.c_str(), r.objective.c_str());
        ++failures;
        continue;
      }
      const SearchRow& cur = *it;
      if (cur.score > r.score + tolerance * std::abs(r.score)) {
        std::fprintf(stderr,
                     "FAIL: %s/%s plan quality regressed: score %.6g > baseline %.6g + %.0f%%\n",
                     r.cluster.c_str(), r.planner.c_str(), cur.score, r.score, tolerance * 100.0);
        ++failures;
      }
      if (cur.score_vs_oracle > r.vs_oracle + tolerance) {
        std::fprintf(stderr,
                     "FAIL: %s/%s plan quality regressed: score_vs_oracle %+.3f > "
                     "baseline %+.3f + %.0f%%\n",
                     r.cluster.c_str(), r.planner.c_str(), cur.score_vs_oracle,
                     r.vs_oracle, tolerance * 100.0);
        ++failures;
      }
      if (cur.planner == "flow" && cur.plan_ms > budget_ms) {
        std::fprintf(stderr, "FAIL: %s/flow planned in %.1f ms > %.0f ms budget\n",
                     r.cluster.c_str(), cur.plan_ms, budget_ms);
        ++failures;
      }
    }
    if (failures > 0) return 2;
    std::fprintf(stderr,
                 "search threshold guard passed (%zu reference rows, tolerance %.0f%%, "
                 "budget %.0f ms)\n",
                 ref.size(), tolerance * 100.0, budget_ms);
  }
  return 0;
}
