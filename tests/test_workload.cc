// Unit tests: arrival processes, dataset samplers, trace builder.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "common/rng.h"
#include "workload/arrivals.h"
#include "workload/datasets.h"
#include "workload/scenarios.h"
#include "workload/trace.h"

namespace hetis::workload {
namespace {

TEST(Arrivals, PoissonRateAccuracy) {
  Rng rng(1);
  auto times = generate_poisson(10.0, 1000.0, rng);
  EXPECT_NEAR(static_cast<double>(times.size()) / 1000.0, 10.0, 0.5);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(Arrivals, ZeroRateSegmentsSilent) {
  Rng rng(2);
  auto times = generate_arrivals({{10.0, 5.0}, {10.0, 0.0}, {10.0, 5.0}}, rng);
  for (Seconds t : times) {
    EXPECT_FALSE(t >= 10.0 && t < 20.0) << "arrival inside silent segment at " << t;
  }
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(Arrivals, SegmentBoundariesRespected) {
  Rng rng(3);
  auto times = generate_arrivals({{5.0, 20.0}}, rng);
  for (Seconds t : times) {
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 5.0);
  }
}

TEST(Arrivals, NegativeInputsThrow) {
  Rng rng(4);
  EXPECT_THROW(generate_arrivals({{-1.0, 5.0}}, rng), std::invalid_argument);
  EXPECT_THROW(generate_arrivals({{1.0, -5.0}}, rng), std::invalid_argument);
}

class DatasetSweep : public ::testing::TestWithParam<Dataset> {};

TEST_P(DatasetSweep, LengthsPositiveAndBounded) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    LengthSample s = sample_lengths(GetParam(), rng);
    EXPECT_GT(s.prompt_len, 0);
    EXPECT_GT(s.output_len, 0);
    EXPECT_LE(s.prompt_len, 16384);
    EXPECT_LE(s.output_len, 1024);
  }
}

INSTANTIATE_TEST_SUITE_P(All, DatasetSweep,
                         ::testing::Values(Dataset::kShareGPT, Dataset::kHumanEval,
                                           Dataset::kLongBench),
                         [](const auto& info) { return to_string(info.param); });

TEST(Datasets, CharacteristicShapes) {
  // LongBench prompts >> ShareGPT prompts >> HumanEval outputs (roughly).
  auto mean_lengths = [](Dataset d) {
    Rng rng(6);
    double prompt = 0, output = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      LengthSample s = sample_lengths(d, rng);
      prompt += static_cast<double>(s.prompt_len) / n;
      output += static_cast<double>(s.output_len) / n;
    }
    return std::make_pair(prompt, output);
  };
  EXPECT_GT(mean_lengths(Dataset::kLongBench).first,
            5 * mean_lengths(Dataset::kShareGPT).first);
  EXPECT_LT(mean_lengths(Dataset::kHumanEval).second,
            mean_lengths(Dataset::kShareGPT).second);
}

TEST(Trace, SortedWithSequentialIds) {
  TraceOptions opts;
  opts.rate = 5.0;
  opts.horizon = 30.0;
  auto trace = build_trace(opts);
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id, static_cast<RequestId>(i));
    if (i > 0) {
      EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
    }
  }
}

TEST(Trace, DeterministicBySeed) {
  TraceOptions opts;
  opts.rate = 3.0;
  opts.horizon = 20.0;
  opts.seed = 99;
  auto a = build_trace(opts);
  auto b = build_trace(opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].output_len, b[i].output_len);
  }
}

TEST(Trace, DifferentSeedsDiffer) {
  TraceOptions a_opts, b_opts;
  a_opts.rate = b_opts.rate = 5.0;
  a_opts.horizon = b_opts.horizon = 20.0;
  a_opts.seed = 1;
  b_opts.seed = 2;
  auto a = build_trace(a_opts);
  auto b = build_trace(b_opts);
  bool differ = a.size() != b.size();
  for (std::size_t i = 0; !differ && i < a.size(); ++i) {
    differ = a[i].prompt_len != b[i].prompt_len;
  }
  EXPECT_TRUE(differ);
}

TEST(Trace, PiecewiseSegmentsOverrideRate) {
  TraceOptions opts;
  opts.rate = 100.0;  // must be ignored
  opts.segments = {{5.0, 2.0}, {5.0, 0.0}};
  auto trace = build_trace(opts);
  for (const auto& r : trace) EXPECT_LT(r.arrival, 5.0);
  EXPECT_LT(trace.size(), 40u);
}

TEST(Trace, StatsComputed) {
  TraceOptions opts;
  opts.rate = 4.0;
  opts.horizon = 50.0;
  auto trace = build_trace(opts);
  TraceStats s = trace_stats(trace);
  EXPECT_EQ(s.count, trace.size());
  EXPECT_GT(s.mean_prompt, 0);
  EXPECT_GT(s.mean_output, 0);
  EXPECT_GT(s.span, 0);
  EXPECT_EQ(trace_stats({}).count, 0u);
}

TEST(Trace, RequestToString) {
  Request r;
  r.id = 3;
  r.prompt_len = 10;
  r.output_len = 20;
  EXPECT_NE(r.to_string().find("prompt=10"), std::string::npos);
  EXPECT_EQ(r.total_len(), 30);
}

TEST(TraceRecordReplay, RoundTripsEveryFieldExactly) {
  // A generated scenario (with tenants and full-precision arrivals) must
  // survive save -> load field-for-field, so replayed experiments are
  // byte-identical to the generating run.
  ScenarioSpec spec;
  spec.kind = Scenario::kMultiTenant;
  spec.rate = 5.0;
  spec.horizon = 20.0;
  spec.seed = 99;
  auto trace = generate_scenario(spec);
  ASSERT_GT(trace.size(), 10u);

  std::stringstream buf;
  save_trace(buf, trace);
  auto back = load_trace(buf);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].id, trace[i].id);
    EXPECT_EQ(back[i].arrival, trace[i].arrival);  // exact: %.17g round trip
    EXPECT_EQ(back[i].prompt_len, trace[i].prompt_len);
    EXPECT_EQ(back[i].output_len, trace[i].output_len);
    EXPECT_EQ(back[i].tenant, trace[i].tenant);
  }
  // And a second save yields identical bytes.
  std::stringstream again;
  save_trace(again, back);
  EXPECT_EQ(again.str(), buf.str());
}

TEST(TraceRecordReplay, LoadRejectsMalformedInput) {
  std::stringstream missing_header("1,0.5,10,20,0\n");
  EXPECT_THROW(load_trace(missing_header), std::invalid_argument);
  std::stringstream short_row("id,arrival,prompt_len,output_len,tenant\n1,0.5,10\n");
  EXPECT_THROW(load_trace(short_row), std::invalid_argument);
  std::stringstream not_numeric("id,arrival,prompt_len,output_len,tenant\na,b,c,d,e\n");
  EXPECT_THROW(load_trace(not_numeric), std::invalid_argument);
  // Numeric PREFIXES must be rejected too: "12abc" silently truncating to
  // 12 would corrupt a replay instead of failing it.
  std::stringstream trailing("id,arrival,prompt_len,output_len,tenant\n1,0.5x,12abc,20,0\n");
  EXPECT_THROW(load_trace(trailing), std::invalid_argument);
  // Arrivals must be finite, non-negative and non-decreasing (stod parses
  // "nan" and "inf" as whole cells); the error names the offending line.
  const std::string header = "id,arrival,prompt_len,output_len,tenant\n";
  auto expect_rejected_at_line_3 = [](const std::string& text) {
    std::stringstream is(text);
    try {
      load_trace(is);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 3 "), std::string::npos) << e.what();
    }
  };
  for (const char* arrival : {"nan", "inf", "-inf", "-0.5"}) {
    expect_rejected_at_line_3(header + "0,0.5,10,20,0\n1," + arrival + ",10,20,0\n");
  }
  const std::string decreasing = header + "0,2.0,10,20,0\n1,1.0,10,20,0\n";
  expect_rejected_at_line_3(decreasing);
  // Ids must be non-negative and unique, and both lengths at least 1: no
  // engine can serve anything else.
  expect_rejected_at_line_3(header + "0,0.5,10,20,0\n0,1.0,10,20,0\n");
  expect_rejected_at_line_3(header + "7,0.5,10,20,0\n-1,1.0,10,20,0\n");
  expect_rejected_at_line_3(header + "0,0.5,10,20,0\n1,1.0,-10,20,0\n");
  expect_rejected_at_line_3(header + "0,0.5,10,20,0\n1,1.0,10,-3,0\n");
  expect_rejected_at_line_3(header + "0,0.5,10,20,0\n1,1.0,0,20,0\n");
  expect_rejected_at_line_3(header + "0,0.5,10,20,0\n1,1.0,10,0,0\n");
  // Ids lie in [0, 2^24) (kDenseIdLimit), where every per-request table
  // indexes them, but need not be dense or ordered inside it.
  expect_rejected_at_line_3(header + "0,0.5,10,20,0\n16777216,1.0,10,20,0\n");
  expect_rejected_at_line_3(header + "0,0.5,10,20,0\n1000000000000,1.0,10,20,0\n");
  std::stringstream sparse(header + "9,0.5,1,1,0\n16777215,0.5,1,1,0\n3,0.7,1,1,0\n");
  EXPECT_EQ(load_trace(sparse).size(), 3u);
  EXPECT_THROW(load_trace(std::string("/nonexistent/dir/trace.csv")), std::runtime_error);
  std::stringstream empty_trace("id,arrival,prompt_len,output_len,tenant\n");
  EXPECT_TRUE(load_trace(empty_trace).empty());
}

}  // namespace
}  // namespace hetis::workload
