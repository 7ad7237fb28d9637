#include "hetis/hetis_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/log.h"
#include "common/rng.h"
#include "engine/instance.h"
#include "planner/planner.h"

namespace hetis::core {

namespace {

/// Applies the Fig. 16(b) error-injection: each fitted coefficient is
/// scaled by (1 +- profile_error), sign chosen by a seeded coin so errors
/// do not systematically cancel.
costmodel::ProfileResult inject_error(costmodel::ProfileResult profile, double err,
                                      std::uint64_t seed,
                                      HetisOptions::ErrorTarget target) {
  if (err == 0.0) return profile;
  using ET = HetisOptions::ErrorTarget;
  Rng rng(seed ^ 0xE44Au);
  auto sign = [&rng] { return rng.bernoulli(0.5) ? 1.0 : -1.0; };
  auto err_if = [&](ET which) {
    double s = err * sign();  // consume the stream deterministically
    return (target == ET::kAll || target == which) ? s : 0.0;
  };
  for (auto& [dev, prof] : profile.devices) {
    prof.attn = prof.attn.perturbed(err_if(ET::kA), err_if(ET::kB), err_if(ET::kC));
  }
  for (auto& [link, prof] : profile.links) {
    prof.transfer = prof.transfer.perturbed(err_if(ET::kGamma), err_if(ET::kBeta));
  }
  return profile;
}

}  // namespace

HetisEngine::HetisEngine(const hw::Cluster& cluster, const model::ModelSpec& model,
                         HetisOptions opts)
    : opts_(opts), exec_(cluster, model), hauler_(cluster) {
  if (opts_.plan) {
    plan_ = *opts_.plan;
  } else {
    auto planner = planner::make(opts_.search.planner, cluster, model, opts_.search);
    plan_ = planner->plan(opts_.workload);
    search_diag_ = planner->diagnostics();
  }
  costmodel::ProfilerOptions popts;
  popts.seed = opts_.profile_seed;
  costmodel::Profiler profiler(cluster, model, popts);
  profile_ = inject_error(profiler.profile_all(), opts_.profile_error, opts_.profile_seed,
                          opts_.profile_error_target);
  build_instances();
}

HetisEngine::~HetisEngine() = default;

void HetisEngine::build_instances() {
  for (const auto& inst : plan_.instances) {
    instances_.push_back(
        std::make_unique<HetisInstance>(exec_, inst, profile_, metrics_, hauler_, opts_));
    instances_.back()->set_tenant_priorities(tenant_priorities_);
  }
}

void HetisEngine::set_plan_objective(const parallel::ObjectiveSpec& objective) {
  parallel::make_objective(objective);  // validate eagerly: a typo must fail
                                        // here, not mid-churn on a replan
  opts_.search.objective = objective;
  plan_table_.clear();
}

void HetisEngine::set_planner(const std::string& planner) {
  planner::validate(planner);  // same eager-failure contract as objectives
  opts_.search.planner = planner;
  plan_table_.clear();
}

void HetisEngine::set_tenant_priorities(std::vector<int> priorities) {
  tenant_priorities_ = std::move(priorities);
  for (auto& inst : instances_) inst->set_tenant_priorities(tenant_priorities_);
}

void HetisEngine::start(sim::Simulation& sim) {
  if (opts_.sample_interval > 0) {
    // Periodic Fig. 14 usage sampling, cancelled when the engine dies.
    usage_sampling_ = sim.every(opts_.sample_interval, opts_.sample_interval, [this, &sim] {
      for (auto& inst : instances_) inst->sample_usage(sim);
      return opts_.sample_horizon <= 0 || sim.now() < opts_.sample_horizon;
    });
  }
}

HetisInstance* HetisEngine::least_filled() {
  HetisInstance* best = instances_.front().get();
  for (auto& inst : instances_) {
    if (inst->fill_fraction() < best->fill_fraction()) best = inst.get();
  }
  return best;
}

void HetisEngine::submit(sim::Simulation& sim, const workload::Request& r) {
  metrics_.on_arrival(r);
  least_filled()->submit(sim, r);
}

std::string HetisEngine::plan_digest() const {
  std::ostringstream os;
  os << "hetis:" << plan_.instances.size() << "inst[";
  for (std::size_t i = 0; i < plan_.instances.size(); ++i) {
    const parallel::InstanceConfig& inst = plan_.instances[i];
    os << (i ? "," : "") << "pp" << inst.stages.size() << "/dev" << inst.primary_devices().size()
       << "+" << inst.attention_workers.size() << "aw";
  }
  os << "]";
  return os.str();
}

std::vector<int> HetisEngine::active_devices() const {
  std::vector<int> devs;
  for (const auto& inst : plan_.instances) {
    for (int d : inst.primary_devices()) devs.push_back(d);
    devs.insert(devs.end(), inst.attention_workers.begin(), inst.attention_workers.end());
  }
  std::sort(devs.begin(), devs.end());
  return devs;
}

parallel::ParallelPlan HetisEngine::compute_plan(const std::vector<int>& devices) {
  // §5.3 applied to churn: re-plan over the device set through the
  // configured planner tier.  subcluster() carries the degradation overlay,
  // so the search prices measured -- not nameplate -- hardware.  Churn
  // revisits the same few device sets as spot devices leave and rejoin, so
  // most replans repeat a search this engine already ran under the same
  // overlay, objective and tier (83% on perfbench spot_churn): plan_table_
  // replays those, diagnostics included.
  ++stats_.plan_searches;
  const std::uint64_t epoch = exec_.cluster().condition_epoch();
  if (epoch != plan_table_epoch_) {
    plan_table_.clear();
    plan_table_epoch_ = epoch;
  }
  if (auto it = plan_table_.find(devices); it != plan_table_.end()) {
    search_diag_ = it->second.diag;
    return it->second.plan;
  }
  std::vector<int> original_ids;
  hw::Cluster sub = exec_.cluster().subcluster(devices, &original_ids);
  auto planner = planner::make(opts_.search.planner, sub, exec_.model_spec(), opts_.search);
  parallel::ParallelPlan plan = planner->plan(opts_.workload);
  search_diag_ = planner->diagnostics();
  parallel::remap_device_ids(plan, original_ids);
  plan_table_.emplace(devices, PlannedSet{plan, search_diag_});
  return plan;
}

void HetisEngine::reconfigure(sim::Simulation& sim, const std::vector<int>& devices) {
  // Plan BEFORE draining: an infeasible device set throws here and leaves
  // the running deployment untouched.
  apply_plan(sim, compute_plan(devices));
}

void HetisEngine::on_degradation(sim::Simulation& sim) {
  // The device set is unchanged -- only its measured condition moved.
  // Replan over the same devices and commit only a genuine layout change
  // (typically the straggler demoted from a primary stage to an Attention
  // worker); an identical plan means the degradation was not worth a
  // migration cycle.
  parallel::ParallelPlan fresh = compute_plan(active_devices());
  if (fresh == plan_) return;
  apply_plan(sim, std::move(fresh));
}

void HetisEngine::on_preempt_notice(sim::Simulation& sim, int device, Seconds leave_time) {
  (void)leave_time;  // the lead window is implicit: act NOW, leave later
  std::vector<int> devices = active_devices();
  auto it = std::find(devices.begin(), devices.end(), device);
  if (it == devices.end()) return;  // not serving on it: nothing at risk
  if (devices.size() <= 1) return;  // nowhere to evacuate to
  devices.erase(it);
  // Re-deploy without the doomed device while its KV is still readable:
  // apply_plan's migrations ride the Hauler during the lead window, so the
  // later kGpuLeave sees an idle device and costs nothing.
  reconfigure(sim, devices);
}

void HetisEngine::apply_plan(sim::Simulation& sim, parallel::ParallelPlan plan) {
  // Drain the current deployment.  Prefilled requests keep their decode
  // progress; each remembers its old primary device as the KV source.
  struct Carried {
    engine::LiveRequest lr;
    int src_device;
  };
  std::vector<Carried> live;
  std::vector<engine::LiveRequest> fresh;
  std::vector<engine::LiveRequest> drained;
  for (auto& inst : instances_) {
    const int src = inst->primary_device();
    drained.clear();
    inst->retire(drained);
    for (auto& lr : drained) {
      if (lr.prefilled) {
        live.push_back(Carried{std::move(lr), src});
      } else {
        fresh.push_back(std::move(lr));
      }
    }
    retired_.push_back(std::move(inst));
  }
  instances_.clear();
  std::sort(live.begin(), live.end(),
            [](const Carried& a, const Carried& b) { return a.lr.req.id < b.lr.req.id; });

  plan_ = std::move(plan);
  build_instances();
  ++stats_.reconfigurations;

  const model::ModelSpec& m = exec_.model_spec();
  // Live-migrate prefilled requests: ship their KV to the new deployment
  // through the Hauler and resume decoding once it lands.  Requests the new
  // deployment cannot host fall back to recompute.
  for (auto& c : live) {
    HetisInstance* dst = least_filled();
    const Bytes kv = m.kv_bytes_per_token() * c.lr.context();
    if (const auto done = dst->adopt(sim, c.lr, c.src_device, kv)) {
      metrics_.on_migrate(c.lr.req.id, sim.now(), *done, c.src_device, dst->primary_device());
      ++stats_.migrated_requests;
      stats_.migrated_kv_bytes += kv;
    } else {
      engine::restart_from_scratch(c.lr, metrics_, sim.now());
      ++stats_.restarted_requests;
      fresh.push_back(std::move(c.lr));
    }
  }
  // Fresh requests (waiting, mid-prefill, or migration fallbacks) re-queue
  // in arrival order.
  std::sort(fresh.begin(), fresh.end(), engine::id_order);
  for (auto& lr : fresh) least_filled()->enqueue(sim, std::move(lr));
}

Bytes HetisEngine::usable_kv_capacity() const {
  // Head-wise placement makes every byte of every pool usable (§2.4 O2).
  Bytes total = 0;
  for (const auto& inst : instances_) total += inst->kv_capacity();
  return total;
}

double HetisEngine::kv_fill_fraction() const {
  double worst = 0;
  for (const auto& inst : instances_) worst = std::max(worst, inst->fill_fraction());
  return worst;
}

engine::PerfCounters HetisEngine::perf_counters() const {
  engine::PerfCounters pc;
  for (const auto& inst : instances_) pc.lp_solves += inst->dispatcher().lp_solves();
  for (const auto& inst : retired_) pc.lp_solves += inst->dispatcher().lp_solves();
  pc.costmodel_hits = exec_.cost_cache_hits();
  return pc;
}

int HetisEngine::rescue_redispatches() const {
  int n = 0;
  for (const auto& inst : instances_) n += inst->rescue_redispatches();
  for (const auto& inst : retired_) n += inst->rescue_redispatches();
  return n;
}

int HetisEngine::balance_redispatches() const {
  int n = 0;
  for (const auto& inst : instances_) n += inst->balance_redispatches();
  for (const auto& inst : retired_) n += inst->balance_redispatches();
  return n;
}

// ---------------------------------------------------------------------------
// HetisInstance
// ---------------------------------------------------------------------------

dispatch::DispatcherConfig HetisInstance::make_dispatcher_config(
    const costmodel::ProfileResult& profile, const HetisOptions& opts) const {
  const model::ModelSpec& m = exec_->model_spec();
  dispatch::DispatcherConfig dc;
  dc.heads = m.heads;
  dc.group_size = m.gqa_ratio();
  dc.bytes_per_head_token_layer =
      2.0 * m.head_dim() * m.dtype_bytes / static_cast<double>(m.gqa_ratio());
  dc.total_layers = m.layers;
  dc.theta = opts.theta;
  dc.use_lp = opts.use_lp;

  // Condition overlay: a degraded device's attention really runs at
  // speed s < 1, so the LP must price its heads 1/s more expensive or it
  // will keep loading the straggler as if it were healthy.
  const auto degraded_attn = [this, &profile](int dev, double speed) {
    costmodel::AttnParams a = profile.attn(dev);
    if (speed != 1.0) {
      const double err = 1.0 / speed - 1.0;
      a = a.perturbed(err, err, err);
    }
    return a;
  };

  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    const auto& s = cfg_.stages[k];
    dispatch::StageDesc sd;
    sd.devices = s.devices;
    sd.layers = s.layers;
    double speed = 1.0;
    for (int dev : s.devices) speed = std::min(speed, exec_->cluster().device_speed(dev));
    sd.attn = degraded_attn(s.devices.front(), speed);
    Bytes params =
        engine::stage_param_bytes_per_device(m, s, k == 0, k + 1 == cfg_.stages.size());
    Bytes cap = 0;
    for (int dev : s.devices) cap += engine::kv_budget(exec_->cluster().device(dev).spec(), params);
    sd.capacity = cap;
    dc.stages.push_back(std::move(sd));
  }
  for (int dev : cfg_.attention_workers) {
    dispatch::WorkerDesc wd;
    wd.device = dev;
    wd.attn = degraded_attn(dev, exec_->cluster().device_speed(dev));
    // Worst-case link to any stage representative (conservative).
    costmodel::TransferParams worst{};
    for (const auto& s : cfg_.stages) {
      if (profile.has_link(s.devices.front(), dev)) {
        const auto& tp = profile.transfer(s.devices.front(), dev);
        worst.gamma = std::max(worst.gamma, tp.gamma);
        worst.beta = std::max(worst.beta, tp.beta);
      }
    }
    wd.transfer = worst;
    wd.capacity = engine::kv_budget(exec_->cluster().device(dev).spec(), 0);
    dc.workers.push_back(std::move(wd));
  }
  return dc;
}

HetisInstance::HetisInstance(const engine::ExecModel& exec, const parallel::InstanceConfig& cfg,
                             const costmodel::ProfileResult& profile,
                             engine::MetricsCollector& metrics, hauler::Hauler& hauler,
                             const HetisOptions& opts)
    : BatchingLoop(exec, cfg, metrics, engine::InstanceOptions{opts.max_prefill_tokens,
                                                               opts.max_batch}),
      hauler_(&hauler),
      opts_(opts),
      dispatcher_(make_dispatcher_config(profile, opts)) {}

std::vector<engine::LiveRequest>::iterator HetisInstance::running_lower_bound(
    workload::RequestId id) {
  return std::lower_bound(running_.begin(), running_.end(), id,
                          [](const engine::LiveRequest& lr, workload::RequestId v) {
                            return lr.req.id < v;
                          });
}

void HetisInstance::insert_running(engine::LiveRequest lr) {
  auto it = running_lower_bound(lr.req.id);
  if (it != running_.end() && it->req.id == lr.req.id) {
    *it = std::move(lr);
  } else {
    running_.insert(it, std::move(lr));
  }
}

double HetisInstance::fill_fraction() const {
  double worst = 0;
  for (std::size_t i = 0; i < dispatcher_.num_logical(); ++i) {
    Bytes cap = dispatcher_.device_capacity(i);
    if (cap > 0) {
      worst = std::max(worst, static_cast<double>(dispatcher_.device_used(i)) /
                                  static_cast<double>(cap));
    }
  }
  return worst;
}

Bytes HetisInstance::kv_capacity() const {
  Bytes total = 0;
  for (std::size_t i = 0; i < dispatcher_.num_logical(); ++i) {
    total += dispatcher_.device_capacity(i);
  }
  return total;
}

bool HetisInstance::admit(sim::Simulation& sim, const engine::LiveRequest& lr) {
  // Dispatch this request's heads (Eq. 7); reserves memory at their
  // destinations.
  return dispatcher_.dispatch(lr.req.id, lr.req.prompt_len + 1, sim.now()).has_value();
}

std::optional<Seconds> HetisInstance::adopt(sim::Simulation& sim, const engine::LiveRequest& lr,
                                            int src_device, Bytes kv) {
  if (!dispatcher_.dispatch(lr.req.id, lr.context(), sim.now())) return std::nullopt;
  // Book the transfer only for a request this instance hosts: a rejected
  // one restarts from scratch and must not hold the channel.
  const Seconds done = hauler_->migrate(src_device, primary_device(), kv, sim.now());
  insert_running(lr);
  if (done > sim.now()) suspended_until_[lr.req.id] = done;
  pump(sim);
  return done;
}

void HetisInstance::drain_running(std::vector<engine::LiveRequest>& live) {
  live.insert(live.end(), running_.begin(), running_.end());
  running_.clear();
  suspended_until_.clear();
}

void HetisInstance::sample_usage(sim::Simulation& sim) {
  for (const auto& s : cfg_.stages) {
    for (int dev : s.devices) {
      metrics_->add_usage_sample(engine::UsageSample{
          sim.now(), dev, dispatcher_.physical_cache_fraction(dev),
          dispatcher_.physical_heads(dev)});
    }
  }
  for (int dev : cfg_.attention_workers) {
    metrics_->add_usage_sample(engine::UsageSample{sim.now(), dev,
                                                   dispatcher_.physical_cache_fraction(dev),
                                                   dispatcher_.physical_heads(dev)});
  }
}

bool HetisInstance::plan_decode(sim::Simulation& sim, DecodeStep& step) {
  // One iteration over the running requests not suspended by a migration.
  decoding_.clear();
  for (auto& lr : running_) {
    const workload::RequestId id = lr.req.id;
    if (!suspended_until_.empty()) {
      auto sit = suspended_until_.find(id);
      if (sit != suspended_until_.end()) {
        if (sim.now() < sit->second) continue;
        suspended_until_.erase(sit);
      }
    }
    decoding_.push_back(id);
  }

  if (decoding_.empty()) {
    // Any entry already expired here is an orphan: an expired entry whose
    // request is still running was consumed (and erased) by the scan
    // above.  Waking on an orphan would re-enter pump at the current
    // instant and spin the simulation forever.
    for (auto it = suspended_until_.begin(); it != suspended_until_.end();) {
      if (it->second <= sim.now()) {
        it = suspended_until_.erase(it);
      } else {
        ++it;
      }
    }
    if (!suspended_until_.empty() && !wake_scheduled_) {
      // Wake when the earliest migration lands.
      Seconds wake = std::numeric_limits<double>::infinity();
      for (const auto& [id, t] : suspended_until_) wake = std::min(wake, t);
      wake_scheduled_ = true;
      sim.schedule_at(wake, [this, &sim] {
        wake_scheduled_ = false;
        pump(sim);
      });
    }
    return false;
  }

  // Dense part on the primary pipeline; attention via the dispatcher's
  // fine-grained placement.
  const auto n = static_cast<std::int64_t>(decoding_.size());
  Seconds dense = 0;
  Seconds worst_stage = 0;
  for (std::size_t k = 0; k < cfg_.stages.size(); ++k) {
    Seconds stage = exec_->stage_dense_time(cfg_.stages[k], n);
    dense += stage;
    worst_stage = std::max(worst_stage, stage);
    if (k + 1 < cfg_.stages.size()) {
      dense += exec_->interstage_comm(cfg_.stages[k], cfg_.stages[k + 1], n);
    }
  }
  Seconds attn = dispatcher_.attention_iteration_time();

  // Module metrics (§7.3): max per-stage dense x #stages; attention total.
  metrics_->add_decode_module_sample(worst_stage * static_cast<double>(cfg_.stages.size()),
                                     attn);

  step.latency = dense + attn;
  // The slowest stage (including its attention share) gates the pipeline.
  step.interval =
      worst_stage + attn / static_cast<double>(std::max<std::size_t>(1, cfg_.stages.size()));
  return true;
}

Seconds HetisInstance::ship_offloaded_kv(sim::Simulation& sim, workload::RequestId id) {
  const dispatch::PlacementCounts& pc = dispatcher_.placement(id);
  const model::ModelSpec& m = exec_->model_spec();
  const double bph = 2.0 * m.head_dim() * m.dtype_bytes / m.gqa_ratio();
  std::int64_t ctx = dispatcher_.context(id);
  int src = cfg_.stages.front().devices.front();
  Seconds done = sim.now();
  for (std::size_t w = 0; w < pc.worker_heads.size(); ++w) {
    if (pc.worker_heads[w] <= 0) continue;
    Bytes bytes = static_cast<Bytes>(static_cast<double>(pc.worker_heads[w]) * ctx * bph *
                                     m.layers);
    int dst = cfg_.attention_workers[w];
    done = std::max(done, hauler_->migrate(src, dst, bytes, sim.now()));
  }
  return done;
}

void HetisInstance::prefilled(sim::Simulation& sim, engine::LiveRequest& lr) {
  metrics_->on_first_token(lr.req.id, sim.now());
  if (lr.done()) {
    dispatcher_.remove(lr.req.id);
    // A rebalance may have suspended this request mid-prefill; it never
    // reaches running_, so drop the entry or it outlives the request.
    suspended_until_.erase(lr.req.id);
    metrics_->on_finish(lr.req.id, sim.now());
    return;
  }
  // Ship offloaded heads' prompt KV in the background; the request only
  // resumes decoding once its cache is in place.
  Seconds ready = ship_offloaded_kv(sim, lr.req.id);
  if (ready > sim.now()) suspended_until_[lr.req.id] = ready;
  insert_running(std::move(lr));
}

void HetisInstance::finish_decode_batch(sim::Simulation& sim) {
  ++decode_iterations_;
  // One merge walk of the id-ascending `decoding_` against the id-sorted
  // running_: finished requests are compacted out of running_ in place,
  // and survivors are compacted back into `decoding_` (only positions at or
  // behind the read cursor are overwritten) so their context growth lands
  // in one append_tokens walk.  Nothing in this loop reads dispatcher
  // state, so deferring the appends to the end changes no observable value.
  std::size_t survivors = 0;
  std::size_t kept = 0;
  std::size_t next = 0;  // read cursor into `decoding_`
  for (std::size_t i = 0; i < running_.size(); ++i) {
    engine::LiveRequest& lr = running_[i];
    const workload::RequestId id = lr.req.id;
    // Ids decoded but no longer running were preempted mid-flight.
    while (next < decoding_.size() && decoding_[next] < id) ++next;
    if (next < decoding_.size() && decoding_[next] == id) {
      ++next;
      lr.generated += 1;
      metrics_->on_token(id, sim.now(), lr.generated);
      if (lr.done()) {
        dispatcher_.remove(id);
        suspended_until_.erase(id);
        metrics_->on_finish(id, sim.now());
        continue;
      }
      decoding_[survivors++] = id;
    }
    if (kept != i) running_[kept] = std::move(lr);
    ++kept;
  }
  running_.resize(kept);
  decoding_.resize(survivors);
  dispatcher_.append_tokens(decoding_);
  resolve_memory_pressure(sim);
  if (opts_.enable_redispatch && decode_iterations_ % opts_.redispatch_period == 0) {
    maybe_rebalance(sim);
  }
}

void HetisInstance::resolve_memory_pressure(sim::Simulation& sim) {
  // §5.3.2: on exhaustion, prefer re-dispatching the device-local LIFO
  // victim into the cluster's spare memory; preempt only when no spare
  // memory remains.
  for (int guard = 0; guard < 64; ++guard) {
    auto over = dispatcher_.first_overflowed();
    if (!over) return;
    workload::RequestId victim = dispatcher_.evict_candidate_on(*over);
    if (victim < 0) return;
    if (opts_.enable_redispatch && dispatcher_.has_global_spare()) {
      dispatch::Rebalance rb = dispatcher_.plan_rescue(victim);
      if (rb.valid) {
        // The rescue must actually relieve the overflowed device.
        execute_rebalance(sim, rb);
        ++rescue_count_;
        auto still = dispatcher_.first_overflowed();
        if (still && *still == *over) {
          // No relief: fall through to preemption of the next candidate.
          preempt(sim, dispatcher_.evict_candidate_on(*over));
        }
        continue;
      }
    }
    preempt(sim, victim);
  }
}

void HetisInstance::maybe_rebalance(sim::Simulation& sim) {
  // §5.3.1: trigger when the bottleneck exceeds (1 + Theta) x ideal.
  if (!dispatcher_.should_rebalance()) return;
  dispatch::Rebalance rb = dispatcher_.plan_rebalance();
  if (!rb.valid) return;
  execute_rebalance(sim, rb);
  ++balance_count_;
}

void HetisInstance::execute_rebalance(sim::Simulation& sim, const dispatch::Rebalance& rb) {
  dispatcher_.apply(rb);
  if (rb.moved_bytes > 0 && rb.src_device != rb.dst_device) {
    Seconds done = hauler_->migrate(rb.src_device, rb.dst_device, rb.moved_bytes, sim.now());
    if (done > sim.now()) {
      auto it = suspended_until_.find(rb.victim);
      suspended_until_[rb.victim] =
          it == suspended_until_.end() ? done : std::max(it->second, done);
    }
  }
}

void HetisInstance::preempt(sim::Simulation& sim, workload::RequestId id) {
  if (id < 0) return;
  auto it = running_lower_bound(id);
  if (it == running_.end() || it->req.id != id) return;
  engine::LiveRequest lr = *it;
  running_.erase(it);
  suspended_until_.erase(id);
  dispatcher_.remove(id);
  engine::restart_from_scratch(lr, *metrics_, sim.now());
  requeue_preempted(std::move(lr));
}

}  // namespace hetis::core
