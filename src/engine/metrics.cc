#include "engine/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace hetis::engine {

void MetricsCollector::reserve(std::size_t n) {
  records_.reserve(n);
  slots_.reserve(n);
}

void MetricsCollector::index_slot(workload::RequestId id, std::size_t slot) {
  const auto u = static_cast<std::size_t>(id);
  if (u >= slots_.size()) slots_.resize(u + 1, -1);
  slots_[u] = static_cast<std::int32_t>(slot);
}

const RequestRecord* MetricsCollector::find(workload::RequestId id) const {
  if (id >= 0 && static_cast<std::size_t>(id) < slots_.size()) {
    const std::int32_t s = slots_[static_cast<std::size_t>(id)];
    return s >= 0 ? &records_[static_cast<std::size_t>(s)] : nullptr;
  }
  return nullptr;
}

RequestRecord* MetricsCollector::find(workload::RequestId id) {
  return const_cast<RequestRecord*>(
      static_cast<const MetricsCollector*>(this)->find(id));
}

const RequestRecord& MetricsCollector::record(workload::RequestId id) const {
  const RequestRecord* rec = find(id);
  if (rec == nullptr) throw std::out_of_range("MetricsCollector: unknown request");
  return *rec;
}

void MetricsCollector::on_arrival(const workload::Request& r) {
  if (r.id < 0 || r.id >= workload::kDenseIdLimit) {
    throw std::invalid_argument("MetricsCollector: request id " + std::to_string(r.id) +
                                " outside [0, " + std::to_string(workload::kDenseIdLimit) + ")");
  }
  RequestRecord rec;
  rec.id = r.id;
  rec.arrival = r.arrival;
  rec.prompt_len = r.prompt_len;
  rec.output_len = r.output_len;
  rec.tenant = r.tenant;
  if (records_.empty() || r.id > records_.back().id) {
    // Trace ids ascend in arrival order, so this is the steady-state path.
    records_.push_back(rec);
    index_slot(r.id, records_.size() - 1);
  } else {
    auto it = std::lower_bound(
        records_.begin(), records_.end(), r.id,
        [](const RequestRecord& a, workload::RequestId v) { return a.id < v; });
    if (it != records_.end() && it->id == r.id) {
      throw std::logic_error("MetricsCollector: duplicate arrival");
    }
    const std::size_t pos = static_cast<std::size_t>(it - records_.begin());
    records_.insert(it, rec);
    for (std::size_t i = pos; i < records_.size(); ++i) index_slot(records_[i].id, i);
  }
  for (RunObserver* s : sinks_) s->on_arrival(r);
}

void MetricsCollector::on_first_token(workload::RequestId id, Seconds t) {
  RequestRecord* rec = find(id);
  if (rec == nullptr) throw std::out_of_range("MetricsCollector: unknown request");
  // A preempted-and-recomputed request keeps its original first-token time:
  // sinks see one prefill_done per request, then a reprefill_done for each
  // later completion (a re-prefill closes a telemetry span too).
  const bool first = rec->first_token < 0;
  if (first) rec->first_token = t;
  for (RunObserver* s : sinks_) {
    if (first) {
      s->on_prefill_done(id, t);
    } else {
      s->on_reprefill_done(id, t);
    }
  }
}

void MetricsCollector::on_finish(workload::RequestId id, Seconds t) {
  RequestRecord* rec = find(id);
  if (rec == nullptr) throw std::out_of_range("MetricsCollector: unknown request");
  if (rec->finish < 0) ++finished_;
  rec->finish = t;
  for (RunObserver* s : sinks_) s->on_finish(id, t);
}

void MetricsCollector::on_preemption(workload::RequestId id, Seconds t) {
  RequestRecord* rec = find(id);
  if (rec == nullptr) throw std::out_of_range("MetricsCollector: unknown request");
  ++rec->preemptions;
  ++total_preemptions_;
  for (RunObserver* s : sinks_) s->on_preempt(id, t);
}

void MetricsCollector::add_decode_module_sample(Seconds mlp_time, Seconds attn_time) {
  mlp_module_.add(mlp_time);
  attn_module_.add(attn_time);
}

Summary MetricsCollector::norm_latency() const {
  Summary s;
  for (const RequestRecord& rec : records_) {
    if (rec.finished()) s.add(rec.norm_latency());
  }
  return s;
}

Summary MetricsCollector::ttft() const {
  Summary s;
  for (const RequestRecord& rec : records_) {
    if (rec.first_token >= 0) s.add(rec.ttft());
  }
  return s;
}

Summary MetricsCollector::tpot() const {
  Summary s;
  for (const RequestRecord& rec : records_) {
    if (rec.finished() && rec.output_len > 1) s.add(rec.tpot());
  }
  return s;
}

}  // namespace hetis::engine
