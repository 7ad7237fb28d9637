// Synthetic dataset samplers (paper §7.1 workloads).
//
// We cannot ship ShareGPT / HumanEval / LongBench, but the serving system
// only ever observes the (prompt_len, output_len) marginals, so seeded
// log-normal samplers matched to each dataset's published length statistics
// preserve everything the experiments depend on:
//
//   ShareGPT  (SG, chatbot):        medium prompts, medium-long outputs,
//                                   heavy tail on both.
//   HumanEval (HE, code completion): short prompts, short outputs -- this is
//                                   why the paper drives it at 15-75 req/s.
//   LongBench (LB, summarization):  very long prompts (multi-k tokens),
//                                   short-to-medium outputs; the long-context
//                                   stress test for re-dispatching.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "workload/request.h"

namespace hetis::workload {

enum class Dataset : std::uint8_t { kShareGPT, kHumanEval, kLongBench };

const char* to_string(Dataset d);

struct LengthSample {
  std::int64_t prompt_len;
  std::int64_t output_len;
};

/// Draws one (prompt, output) length pair for the dataset.
LengthSample sample_lengths(Dataset d, Rng& rng);

}  // namespace hetis::workload
