// Inference request descriptor.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace hetis::workload {

using RequestId = std::int64_t;

/// Request ids lie in [0, kDenseIdLimit): load_trace and
/// engine::MetricsCollector::on_arrival (which every engine's submit calls)
/// reject any other, so the per-request tables of MetricsCollector,
/// telemetry::Telemetry and control::Controller index by id directly.
constexpr RequestId kDenseIdLimit = RequestId{1} << 24;

struct Request {
  RequestId id = -1;
  Seconds arrival = 0.0;
  std::int64_t prompt_len = 0;   // tokens in the prompt (prefill work)
  std::int64_t output_len = 0;   // tokens to generate (decode iterations);
                                 // the engine treats this as the point where
                                 // EOS fires -- unknown to the scheduler a
                                 // priori, exactly like real serving.
  int tenant = 0;                // index into the generating scenario's tenant
                                 // list (0 for single-tenant workloads); flows
                                 // through the metrics observer so per-tenant
                                 // SLO attainment can be attributed.

  std::int64_t total_len() const { return prompt_len + output_len; }
  std::string to_string() const;
};

}  // namespace hetis::workload
