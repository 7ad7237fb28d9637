#include "dispatch/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/log.h"

namespace hetis::dispatch {

namespace {
// Per-head per-layer transfer volume: (2 + 2/r) * head_dim-share.  We fold
// the model geometry into the config's bph and gqa ratio: d_head * dtype =
// bph * r / 2, so per-head volume = (2 + 2/r) * bph * r / 2 = (r + 1) * bph.
double per_head_layer_volume(const DispatcherConfig& cfg) {
  return (static_cast<double>(cfg.group_size) + 1.0) * cfg.bytes_per_head_token_layer;
}

/// Orders request-table entries against a bare id (std::lower_bound).
constexpr auto kIdLess = [](const auto& st, workload::RequestId id) { return st.id < id; };
}  // namespace

int PlacementCounts::total() const {
  int t = local;
  for (int h : worker_heads) t += h;
  return t;
}

Dispatcher::Dispatcher(DispatcherConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.stages.empty()) throw std::invalid_argument("Dispatcher: no stages");
  if (cfg_.heads <= 0 || cfg_.group_size <= 0 || cfg_.heads % cfg_.group_size != 0) {
    throw std::invalid_argument("Dispatcher: bad head/group configuration");
  }
  bph_ = cfg_.bytes_per_head_token_layer;
  if (bph_ <= 0) throw std::invalid_argument("Dispatcher: bytes_per_head_token_layer <= 0");
  agg_ = Aggregates(cfg_.workers.size());
}

void Dispatcher::accumulate(Aggregates& agg, const ReqState& st, std::int64_t sign) const {
  agg.local_heads += sign * st.counts.local;
  agg.local_head_tokens += sign * st.counts.local * st.ctx;
  for (std::size_t w = 0; w < cfg_.workers.size(); ++w) {
    agg.worker_heads[w] += sign * st.counts.worker_heads[w];
    agg.worker_head_tokens[w] += sign * st.counts.worker_heads[w] * st.ctx;
  }
}

Seconds Dispatcher::stage_time(std::size_t k, double local_heads,
                               double local_head_tokens) const {
  const StageDesc& s = cfg_.stages[k];
  const double tp = static_cast<double>(s.devices.size());
  // TP spreads local heads and their cache evenly across the group.
  double h = local_heads / tp;
  double g = local_head_tokens * bph_ / tp;  // per-layer bytes per device
  if (h <= 0.0) return 0.0;
  return s.attn.time(h, g);
}

Seconds Dispatcher::worker_time(std::size_t w, double heads, double head_tokens) const {
  if (heads <= 0.0) return 0.0;
  const WorkerDesc& wk = cfg_.workers[w];
  double g = head_tokens * bph_;
  Bytes volume = static_cast<Bytes>(per_head_layer_volume(cfg_) * heads);
  return wk.attn.time(heads, g) + wk.transfer.time(volume);
}

std::size_t Dispatcher::bottleneck_stage(double local_heads, double local_head_tokens) const {
  std::size_t best = 0;
  Seconds worst = -1;
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    // Evaluate with a nominal head so empty state still ranks stages.
    Seconds t = stage_time(k, std::max(1.0, local_heads), std::max(1.0, local_head_tokens));
    if (t > worst) {
      worst = t;
      best = k;
    }
  }
  return best;
}

Seconds Dispatcher::device_time(std::size_t logical) const {
  if (logical == 0) {
    Seconds worst = 0;
    for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
      worst = std::max(worst, stage_time(k, static_cast<double>(agg_.local_heads),
                                         static_cast<double>(agg_.local_head_tokens)));
    }
    return worst;
  }
  std::size_t w = logical - 1;
  return worker_time(w, static_cast<double>(agg_.worker_heads[w]),
                     static_cast<double>(agg_.worker_head_tokens[w]));
}

Seconds Dispatcher::attention_iteration_time() const {
  Seconds worker_worst = 0;
  for (std::size_t w = 0; w < cfg_.workers.size(); ++w) {
    worker_worst = std::max(worker_worst, device_time(1 + w));
  }
  Seconds total = 0;
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    Seconds per_layer =
        std::max(stage_time(k, static_cast<double>(agg_.local_heads),
                            static_cast<double>(agg_.local_head_tokens)),
                 worker_worst);
    total += per_layer * cfg_.stages[k].layers;
  }
  return total;
}

Seconds Dispatcher::worst_per_layer() const {
  Seconds worst = 0;
  for (std::size_t i = 0; i < num_logical(); ++i) worst = std::max(worst, device_time(i));
  return worst;
}

Bytes Dispatcher::device_capacity(std::size_t logical) const {
  if (logical == 0) {
    // Per-layer-normalized merged capacity would be misleading; report the
    // raw sum across stages.
    Bytes total = 0;
    for (const auto& s : cfg_.stages) total += s.capacity;
    return total;
  }
  return cfg_.workers[logical - 1].capacity;
}

Bytes Dispatcher::device_used(std::size_t logical) const {
  if (logical == 0) {
    // Sum over stages: local head-tokens * bph * layers_k.
    double used = 0;
    for (const auto& s : cfg_.stages) {
      used += static_cast<double>(agg_.local_head_tokens) * bph_ * s.layers;
    }
    return static_cast<Bytes>(used);
  }
  std::size_t w = logical - 1;
  return static_cast<Bytes>(static_cast<double>(agg_.worker_head_tokens[w]) * bph_ *
                            cfg_.total_layers);
}

std::optional<std::size_t> Dispatcher::first_overflowed() const {
  // Primary overflow must be judged per stage (the tightest stage binds).
  double worst_ratio = 1.0;
  std::optional<std::size_t> out;
  for (const auto& s : cfg_.stages) {
    if (s.capacity <= 0) continue;
    double used = static_cast<double>(agg_.local_head_tokens) * bph_ * s.layers;
    double ratio = used / static_cast<double>(s.capacity);
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      out = 0;
    }
  }
  for (std::size_t w = 0; w < cfg_.workers.size(); ++w) {
    if (cfg_.workers[w].capacity <= 0) continue;
    double used = static_cast<double>(agg_.worker_head_tokens[w]) * bph_ * cfg_.total_layers;
    double ratio = used / static_cast<double>(cfg_.workers[w].capacity);
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      out = 1 + w;
    }
  }
  return out;
}

workload::RequestId Dispatcher::evict_candidate_on(std::size_t logical) const {
  workload::RequestId victim = -1;
  Seconds latest = -std::numeric_limits<double>::infinity();
  for (const ReqState& st : requests_) {
    int heads_here = logical == 0 ? st.counts.local : st.counts.worker_heads[logical - 1];
    if (heads_here <= 0) continue;
    // Modified LIFO (§5.3.2): latest arrival on the exhausted device; ties
    // break toward the newest id so older requests keep their progress.
    if (st.arrival > latest || (st.arrival == latest && st.id > victim)) {
      latest = st.arrival;
      victim = st.id;
    }
  }
  return victim;
}

bool Dispatcher::has_global_spare() const {
  Bytes cap = 0, used = 0;
  for (std::size_t i = 0; i < num_logical(); ++i) {
    cap += device_capacity(i);
    used += device_used(i);
  }
  return used < cap;
}

double Dispatcher::physical_heads(int device) const {
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    const auto& devs = cfg_.stages[k].devices;
    if (std::find(devs.begin(), devs.end(), device) != devs.end()) {
      return static_cast<double>(agg_.local_heads) / static_cast<double>(devs.size());
    }
  }
  for (std::size_t w = 0; w < cfg_.workers.size(); ++w) {
    if (cfg_.workers[w].device == device) return static_cast<double>(agg_.worker_heads[w]);
  }
  return 0.0;
}

double Dispatcher::physical_cache_fraction(int device) const {
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    const auto& s = cfg_.stages[k];
    if (std::find(s.devices.begin(), s.devices.end(), device) != s.devices.end()) {
      if (s.capacity <= 0) return 0.0;
      double used = static_cast<double>(agg_.local_head_tokens) * bph_ * s.layers;
      return std::min(1.0, used / static_cast<double>(s.capacity));
    }
  }
  for (std::size_t w = 0; w < cfg_.workers.size(); ++w) {
    if (cfg_.workers[w].device == device) {
      if (cfg_.workers[w].capacity <= 0) return 0.0;
      double used = static_cast<double>(agg_.worker_head_tokens[w]) * bph_ * cfg_.total_layers;
      return std::min(1.0, used / static_cast<double>(cfg_.workers[w].capacity));
    }
  }
  return 0.0;
}

void Dispatcher::fill_device_rows(const Aggregates& agg, lp::MinMaxProblem& p) const {
  p.group_size = cfg_.group_size;
  const std::size_t d = 1 + cfg_.workers.size();
  p.base_time.resize(d);
  p.head_cost.resize(d);
  p.cache_cost.resize(d);
  p.mem_free.resize(d);

  // Logical device 0: merged primary.  Time coefficients from the slowest
  // stage; per-layer free memory from the tightest stage.
  const double local_heads = static_cast<double>(agg.local_heads);
  const double local_head_tokens = static_cast<double>(agg.local_head_tokens);
  std::size_t bk = bottleneck_stage(local_heads, local_head_tokens);
  {
    const StageDesc& s = cfg_.stages[bk];
    const double tp = static_cast<double>(s.devices.size());
    p.base_time[0] = stage_time(bk, local_heads, local_head_tokens);
    p.head_cost[0] = s.attn.a / tp;
    p.cache_cost[0] = s.attn.b / tp;
    double free_pl = std::numeric_limits<double>::infinity();
    for (const auto& stg : cfg_.stages) {
      double used = local_head_tokens * bph_ * stg.layers;
      double free_here = (static_cast<double>(stg.capacity) - used) / stg.layers;
      free_pl = std::min(free_pl, free_here);
    }
    p.mem_free[0] = std::max(0.0, free_pl);
  }
  for (std::size_t w = 0; w < cfg_.workers.size(); ++w) {
    const WorkerDesc& wk = cfg_.workers[w];
    const double head_tokens = static_cast<double>(agg.worker_head_tokens[w]);
    double used = head_tokens * bph_ * cfg_.total_layers;
    // Base includes the transfer constants unconditionally (paper Eq. 7's
    // f_i for Attention workers); this biases against premature offload.
    p.base_time[1 + w] =
        wk.attn.time(std::max(0.0, static_cast<double>(agg.worker_heads[w])), head_tokens * bph_) +
        wk.transfer.beta;
    p.head_cost[1 + w] = wk.attn.a + wk.transfer.gamma * per_head_layer_volume(cfg_);
    p.cache_cost[1 + w] = wk.attn.b;
    p.mem_free[1 + w] =
        std::max(0.0, (static_cast<double>(wk.capacity) - used) / cfg_.total_layers);
  }
}

const lp::MinMaxProblem& Dispatcher::build_problem(std::int64_t ctx,
                                                  workload::RequestId exclude) const {
  const Aggregates* aggp = &agg_;
  if (exclude >= 0) {
    if (const ReqState* st = find(exclude)) {
      // Copy-and-subtract into the scratch aggregates so the running totals
      // stay untouched.
      agg_scratch_ = agg_;
      accumulate(agg_scratch_, *st, -1);
      aggp = &agg_scratch_;
    }
  }

  lp::MinMaxProblem& p = prob_;
  fill_device_rows(*aggp, p);
  p.demand.assign(1, static_cast<double>(cfg_.heads));
  p.cache_per_head.assign(1, static_cast<double>(ctx) * bph_);
  return p;
}

void Dispatcher::check_counts(const PlacementCounts& pc, const char* who) const {
  const auto possible = [this](int h) {
    return h >= 0 && h <= cfg_.heads && h % cfg_.group_size == 0;
  };
  if (pc.worker_heads.size() != cfg_.workers.size() || !possible(pc.local) ||
      !std::all_of(pc.worker_heads.begin(), pc.worker_heads.end(), possible) ||
      pc.total() != cfg_.heads) {
    throw std::logic_error(std::string(who) + ": impossible head placement");
  }
}

std::optional<PlacementCounts> Dispatcher::dispatch(workload::RequestId id, std::int64_t ctx,
                                                    Seconds now) {
  PlacementCounts pc;
  // Greedy may fall short when the cluster is memory-exhausted, and the
  // rounded LP when the head groups do not fit.
  if (!place(build_problem(ctx, /*exclude=*/-1), pc)) return std::nullopt;
  check_counts(pc, "Dispatcher::dispatch");
  auto it = lower_bound(id);
  if (it != requests_.end() && it->id == id) {
    accumulate(agg_, *it, -1);  // re-dispatch replaces the old entry
  } else {
    it = requests_.insert(it, ReqState{});
    it->id = id;
  }
  it->ctx = ctx;
  it->arrival = now;
  it->counts = pc;
  accumulate(agg_, *it, +1);
  return pc;
}

void Dispatcher::grow(ReqState& st) {
  st.ctx += 1;
  agg_.local_head_tokens += st.counts.local;
  for (std::size_t w = 0; w < cfg_.workers.size(); ++w) {
    agg_.worker_head_tokens[w] += st.counts.worker_heads[w];
  }
}

void Dispatcher::append_tokens(const std::vector<workload::RequestId>& ids) {
  auto it = requests_.begin();
  for (workload::RequestId id : ids) {
    // `ids` ascends, so the table walk only ever advances.
    while (it != requests_.end() && it->id < id) ++it;
    if (it == requests_.end() || it->id != id) {
      throw std::out_of_range("Dispatcher::append_tokens: unknown id");
    }
    grow(*it);
    ++it;
  }
}

Dispatcher::Table::iterator Dispatcher::lower_bound(workload::RequestId id) {
  return std::lower_bound(requests_.begin(), requests_.end(), id, kIdLess);
}

const Dispatcher::ReqState* Dispatcher::find(workload::RequestId id) const {
  auto it = std::lower_bound(requests_.begin(), requests_.end(), id, kIdLess);
  return it != requests_.end() && it->id == id ? &*it : nullptr;
}

void Dispatcher::remove(workload::RequestId id) {
  auto it = lower_bound(id);
  if (it == requests_.end() || it->id != id) return;
  accumulate(agg_, *it, -1);
  requests_.erase(it);
}

const PlacementCounts& Dispatcher::placement(workload::RequestId id) const {
  const ReqState* st = find(id);
  if (st == nullptr) throw std::out_of_range("Dispatcher::placement: unknown id");
  return st->counts;
}

std::int64_t Dispatcher::context(workload::RequestId id) const {
  const ReqState* st = find(id);
  if (st == nullptr) throw std::out_of_range("Dispatcher::context: unknown id");
  return st->ctx;
}

lp::MinMaxProblem& Dispatcher::ideal_problem() const {
  if (!ideal_base_ready_) {
    // Every aggregate zero: what a fresh Dispatcher(cfg_) would report.
    fill_device_rows(Aggregates(cfg_.workers.size()), ideal_prob_);
    ideal_base_ready_ = true;
  }
  return ideal_prob_;
}

Seconds Dispatcher::ideal_per_layer() const {
  if (requests_.empty()) return 0.0;
  // Re-dispatch everything from scratch: empty base state, all requests as
  // "new", per-device memory; solved by waterfilling (fast approximation of
  // §5.3.1's LP, whose cluster-wide memory row the waterfill does not
  // model).
  lp::MinMaxProblem& p = ideal_problem();
  p.demand.clear();
  p.cache_per_head.clear();
  p.demand.reserve(requests_.size());
  p.cache_per_head.reserve(requests_.size());
  for (const ReqState& st : requests_) {
    p.demand.push_back(static_cast<double>(cfg_.heads));
    p.cache_per_head.push_back(static_cast<double>(st.ctx) * bph_);
  }
  // The waterfill is an upper bound on the true f*; the current placement
  // is itself feasible for the re-dispatch problem, so f* can also never
  // exceed the present bottleneck.
  return std::min(lp::eval_makespan(p, greedy(p)), worst_per_layer());
}

bool Dispatcher::waterfill_cannot_fire(Seconds worst) const {
  // With ideal = min(M, worst) for the waterfill makespan M, the trigger
  // worst > (1 + theta) * ideal cannot fire once worst <= (1 + theta) * M;
  // the case ideal == worst needs theta >= 0.
  if (!(cfg_.theta >= 0.0)) return false;
  const lp::MinMaxProblem& p = ideal_problem();
  const std::size_t d = p.num_devices();
  const double heads = static_cast<double>(cfg_.heads);

  // Weak duality: for any lambda >= 0 with sum 1, every complete assignment
  // (sum_i x_ir = H) has makespan >= sum_i lambda_i f_i
  //   >= sum_i lambda_i base_i + H sum_r min_i lambda_i (head_i + cache_i c_r).
  // Two duals: lambda ~ 1/cache_cost (tight for long contexts) and lambda ~
  // 1/(head_cost + cache_cost * mean c).  A non-positive weight puts the
  // dual on those devices alone (the limit of the normalisation).
  std::int64_t head_tokens = agg_.local_head_tokens;
  for (std::int64_t t : agg_.worker_head_tokens) head_tokens += t;
  const double mean_c =
      static_cast<double>(head_tokens) * bph_ / (heads * static_cast<double>(requests_.size()));
  // Per dual k and device i: lambda_i * head_cost_i and lambda_i * cache_cost_i.
  bound_coef_.assign(4 * d, 0.0);
  const auto head = [this, d](int k, std::size_t i) -> double& {
    return bound_coef_[(2 * k) * d + i];
  };
  const auto cache = [this, d](int k, std::size_t i) -> double& {
    return bound_coef_[(2 * k + 1) * d + i];
  };
  double base_term[2] = {0.0, 0.0};
  for (int k = 0; k < 2; ++k) {
    const auto weight = [&](std::size_t i) {
      return k == 0 ? p.cache_cost[i] : p.head_cost[i] + p.cache_cost[i] * mean_c;
    };
    std::size_t zeros = 0;
    double inv_sum = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      if (weight(i) <= 0.0) {
        ++zeros;
      } else {
        inv_sum += 1.0 / weight(i);
      }
    }
    for (std::size_t i = 0; i < d; ++i) {
      const double lambda = zeros > 0 ? (weight(i) <= 0.0 ? 1.0 / static_cast<double>(zeros) : 0.0)
                                      : 1.0 / (weight(i) * inv_sum);
      head(k, i) = lambda * p.head_cost[i];
      cache(k, i) = lambda * p.cache_cost[i];
      base_term[k] += lambda * p.base_time[i];
    }
  }

  double per_request[2] = {0.0, 0.0};
  std::int64_t ctx_sum = 0;
  std::int64_t ctx_max = 0;
  for (const ReqState& st : requests_) {
    const double c = static_cast<double>(st.ctx) * bph_;
    for (int k = 0; k < 2; ++k) {
      double best = head(k, 0) + cache(k, 0) * c;
      for (std::size_t i = 1; i < d; ++i) best = std::min(best, head(k, i) + cache(k, i) * c);
      per_request[k] += best;
    }
    ctx_sum += st.ctx;
    ctx_max = std::max(ctx_max, st.ctx);
  }
  const double bound = std::max(base_term[0] + heads * per_request[0],
                                base_term[1] + heads * per_request[1]);
  // The 1e-9 slack absorbs the rounding between this sum and the
  // waterfill's own evaluation of its makespan.
  if (!(worst <= (1.0 + cfg_.theta) * bound * (1.0 - 1e-9))) return false;

  // Memory certificate: the waterfill can only stop short on a group that
  // fits nowhere, i.e. when used_i + need > free_i on every device.  Summed,
  // that needs sum(demand) - need + D * need > sum(free), and need is at
  // most r * max c; so this inequality (with slack for rounding) proves
  // every head gets placed.
  double mem_free = 0.0;
  for (double f : p.mem_free) mem_free += f;
  const double need = heads * static_cast<double>(ctx_sum) * bph_ +
                      static_cast<double>(d - 1) * cfg_.group_size *
                          static_cast<double>(ctx_max) * bph_;
  return need * (1.0 + 1e-9) <= mem_free;
}

bool Dispatcher::should_rebalance() const {
  if (requests_.empty()) return false;
  const Seconds worst = worst_per_layer();
  if (waterfill_cannot_fire(worst)) return false;
  Seconds ideal = ideal_per_layer();
  if (ideal <= 0) return false;
  return worst > (1.0 + cfg_.theta) * ideal;
}

Rebalance Dispatcher::plan_single(workload::RequestId victim) const {
  Rebalance rb;
  rb.victim = victim;
  const ReqState* st = find(victim);
  if (st == nullptr) return rb;
  rb.from = st->counts;

  if (!place(build_problem(st->ctx, /*exclude=*/victim), rb.to)) return rb;  // infeasible

  // Moved heads: overlap-preserving reassignment means only net deltas move.
  // The Hauler's source is the device that lost the most heads and its
  // destination the one that gained the most (the primary when `local`
  // shrank or grew the most).
  double moved = std::max(0, rb.to.local - rb.from.local);
  int src = cfg_.stages.front().devices.front();
  int dst = src;
  int biggest_gain = std::max(0, rb.to.local - rb.from.local);
  int biggest_loss = std::max(0, rb.from.local - rb.to.local);
  for (std::size_t w = 0; w < cfg_.workers.size(); ++w) {
    int delta = rb.to.worker_heads[w] - rb.from.worker_heads[w];
    if (delta > 0) {
      moved += delta;
      if (delta > biggest_gain) {
        biggest_gain = delta;
        dst = cfg_.workers[w].device;
      }
    } else if (-delta > biggest_loss) {
      biggest_loss = -delta;
      src = cfg_.workers[w].device;
    }
  }
  rb.moved_heads = moved;
  rb.moved_bytes =
      static_cast<Bytes>(moved * static_cast<double>(st->ctx) * bph_ * cfg_.total_layers);
  rb.src_device = src;
  rb.dst_device = dst;
  rb.valid = moved > 0;
  return rb;
}

Rebalance Dispatcher::plan_rebalance() const {
  // Bottleneck logical device.
  std::size_t bottleneck = 0;
  Seconds worst = -1;
  for (std::size_t i = 0; i < num_logical(); ++i) {
    Seconds t = device_time(i);
    if (t > worst) {
      worst = t;
      bottleneck = i;
    }
  }
  // Dominant request on it: largest per-layer load contribution.
  workload::RequestId victim = -1;
  double biggest = -1;
  for (const ReqState& st : requests_) {
    int h = bottleneck == 0 ? st.counts.local : st.counts.worker_heads[bottleneck - 1];
    if (h <= 0) continue;
    double load = static_cast<double>(h) * st.ctx;
    if (load > biggest) {
      biggest = load;
      victim = st.id;
    }
  }
  if (victim < 0) return Rebalance{};
  return plan_single(victim);
}

Rebalance Dispatcher::plan_rescue(workload::RequestId victim) const { return plan_single(victim); }

void Dispatcher::apply(const Rebalance& rb) {
  if (!rb.valid) throw std::logic_error("Dispatcher::apply: invalid rebalance");
  auto it = lower_bound(rb.victim);
  if (it == requests_.end() || it->id != rb.victim) {
    throw std::out_of_range("Dispatcher::apply: unknown victim");
  }
  check_counts(rb.to, "Dispatcher::apply");
  accumulate(agg_, *it, -1);
  it->counts = rb.to;
  accumulate(agg_, *it, +1);
}

bool Dispatcher::place(const lp::MinMaxProblem& p, PlacementCounts& out) const {
  const auto take = [this, &out](const auto& heads_on) {
    out.local = heads_on(0);
    out.worker_heads.resize(cfg_.workers.size());
    for (std::size_t w = 0; w < cfg_.workers.size(); ++w) out.worker_heads[w] = heads_on(1 + w);
    return out.total() == cfg_.heads;
  };
  if (cfg_.use_lp) {
    ++lp_solves_;
    const lp::MinMaxSolution relaxed = lp::solve_one(p);
    if (relaxed.ok()) {
      const std::vector<int> heads = lp::round_to_groups(p, relaxed);
      return take([&heads](std::size_t i) { return heads[i]; });
    }
  }
  const std::vector<std::vector<int>>& heads = greedy(p);
  return take([&heads](std::size_t i) { return heads[i][0]; });
}

const std::vector<std::vector<int>>& Dispatcher::greedy(const lp::MinMaxProblem& p) const {
  ++lp_solves_;
  p.validate();
  lp::greedy_dispatch_into(p, greedy_heads_, greedy_load_, greedy_mem_);
  return greedy_heads_;
}

}  // namespace hetis::dispatch
