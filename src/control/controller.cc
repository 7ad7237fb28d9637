#include "control/controller.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"
#include "parallel/objective.h"
#include "planner/planner.h"
#include "telemetry/audit.h"

namespace hetis::control {

Controller::Controller(ControlSpec spec, const hw::Cluster& cluster)
    : Controller(std::move(spec), cluster, nullptr) {}

Controller::Controller(ControlSpec spec, hw::Cluster& cluster)
    : Controller(std::move(spec), cluster, &cluster) {}

Controller::Controller(ControlSpec spec, const hw::Cluster& cluster,
                       hw::Cluster* mutable_cluster)
    : spec_(std::move(spec)), cluster_(&cluster), mutable_cluster_(mutable_cluster) {
  policy_ = make_policy(spec_.policy, spec_.threshold, spec_.slo_policy);
  policy_name_ = policy_->name();
  events_ = generate_churn(spec_.churn, cluster);
  if (!mutable_cluster_) {
    // Degradation events mutate the cluster's condition overlay; replaying
    // them against a const cluster would silently serve at nameplate speed.
    for (const ClusterEvent& ev : events_) {
      if (mutates_cluster(ev.kind)) {
        throw std::invalid_argument(
            "Controller: churn script '" + std::string(to_string(spec_.churn.kind)) +
            "' contains degradation events (" + to_string(ev.kind) +
            "); construct the Controller with a mutable hw::Cluster&");
      }
    }
  }
  for (const auto& d : cluster.devices()) available_.insert(d.id);
  const int total = cluster.num_devices();
  if (spec_.min_devices < 1 || spec_.min_devices > total) {
    throw std::invalid_argument("Controller: min_devices must be in [1, cluster size]");
  }
  if (spec_.initial_devices < 0 || spec_.initial_devices > total) {
    throw std::invalid_argument("Controller: initial_devices must be in [0, cluster size]");
  }
  if (!(spec_.straggler_threshold > 0) || spec_.straggler_threshold > 1) {
    throw std::invalid_argument("Controller: straggler_threshold must be in (0, 1]");
  }
  target_count_ = spec_.initial_devices == 0 ? total : spec_.initial_devices;
  target_count_ = clamp_target(target_count_);
  if (!spec_.replan_objective.empty()) {
    parallel::make_objective(spec_.replan_objective);  // typo -> throw at build
                                                       // time, not mid-churn
  }
  planner::validate(spec_.replan_planner);  // "" = keep the engine's planner
}

std::function<void(sim::Simulation&, engine::Engine&)> Controller::starter() {
  return [this](sim::Simulation& sim, engine::Engine& engine) { attach(sim, engine); };
}

void Controller::attach(sim::Simulation& sim, engine::Engine& engine) {
  engine_ = &engine;
  reconfigurable_ = dynamic_cast<engine::Reconfigurable*>(&engine);
  if (!reconfigurable_) {
    // A pure observer attachment (no churn, no elective scaling) is fine;
    // anything that could demand a re-deploy is not.
    const bool needs_reconfig = !events_.empty() || spec_.policy != "static" ||
                                (spec_.initial_devices != 0 &&
                                 spec_.initial_devices != cluster_->num_devices());
    if (needs_reconfig) {
      throw std::invalid_argument("Controller: engine '" + engine.name() +
                                  "' does not implement engine::Reconfigurable");
    }
  }

  // An SLO-attainment controller replans for latency, not raw throughput,
  // unless the spec pins a different objective explicitly.
  replan_objective_ = spec_.replan_objective;
  if (replan_objective_.empty() && spec_.policy == "slo") replan_objective_ = "latency";
  if (!replan_objective_.empty() && reconfigurable_) {
    reconfigurable_->set_plan_objective({replan_objective_, spec_.slo});
  }
  if (!spec_.replan_planner.empty() && reconfigurable_) {
    reconfigurable_->set_planner(spec_.replan_planner);
  }

  engine.metrics().attach(this);

  // The construction deployment was planned over the whole cluster, so the
  // assigned set starts as every device; pick_active() shrinks it below.
  active_.assign(available_.begin(), available_.end());
  active_history_.emplace_back(sim.now(), static_cast<int>(active_.size()));
  stats_.peak_active = static_cast<int>(active_.size());
  stats_.min_active = static_cast<int>(active_.size());

  // An initial_devices cap below the construction deployment applies
  // before the first arrival (the engine pays its own transition cost --
  // with nothing in flight this is cheap for every engine).
  apply_target(sim, /*forced=*/true, "initial");

  for (const ClusterEvent& ev : events_) {
    sim.schedule_at(ev.time, [this, &sim, ev] { handle_event(sim, ev); });
  }
  if (spec_.tick > 0) {
    ticking_ = sim.every(spec_.tick, spec_.tick, [this, &sim] { return tick(sim); });
  }
}

int Controller::clamp_target(int target) const {
  const int avail = static_cast<int>(available_.size());
  return std::max(std::min(target, avail), std::min(spec_.min_devices, avail));
}

std::vector<int> Controller::pick_active() const {
  // Rank available devices by EFFECTIVE compute power -- nameplate scaled
  // by the live degradation overlay (desc, id asc on ties) -- and keep the
  // strongest `target_count_`: churn takes whatever it takes, elective
  // scaling always sheds the weakest devices first, where "weakest" means
  // measured, not nameplate (a straggling A100 at 35% ranks below a
  // healthy 3090).  On healthy clusters every ratio is 1.0 and the
  // ranking is byte-identical to the historical nameplate order.
  std::vector<int> ranked(available_.begin(), available_.end());
  std::sort(ranked.begin(), ranked.end(), [this](int a, int b) {
    const double pa = cluster_->device(a).spec().compute_power() * cluster_->device_speed(a);
    const double pb = cluster_->device(b).spec().compute_power() * cluster_->device_speed(b);
    if (pa != pb) return pa > pb;
    return a < b;
  });
  const std::size_t n = static_cast<std::size_t>(clamp_target(target_count_));
  ranked.resize(std::min(ranked.size(), n));
  std::sort(ranked.begin(), ranked.end());
  return ranked;
}

bool Controller::apply_target(sim::Simulation& sim, bool forced, const char* trigger,
                              int device) {
  if (!reconfigurable_) return false;
  std::vector<int> want = pick_active();
  if (want == active_) return false;
  if (!forced) {
    if (last_elective_ >= 0 && sim.now() - last_elective_ < spec_.cooldown) return false;
    last_elective_ = sim.now();
  }
  decide(sim, trigger, device, "redeploy", forced, active_, [&] {
    reconfigurable_->reconfigure(sim, want);
    return want;
  });
  active_ = std::move(want);
  active_history_.emplace_back(sim.now(), static_cast<int>(active_.size()));
  (forced ? stats_.forced_reconfigs : stats_.elective_reconfigs) += 1;
  stats_.peak_active = std::max(stats_.peak_active, static_cast<int>(active_.size()));
  stats_.min_active = std::min(stats_.min_active, static_cast<int>(active_.size()));
  HETIS_INFO("Controller: " << (forced ? "forced" : "elective") << " re-deploy to "
                            << active_.size() << " devices at t=" << sim.now());
  return true;
}

void Controller::handle_event(sim::Simulation& sim, const ClusterEvent& ev) {
  switch (ev.kind) {
    case ClusterEventKind::kGpuLeave: {
      if (available_.erase(ev.device) == 0) return;  // already gone
      if (available_.empty()) {
        throw std::invalid_argument("Controller: churn script removed every device");
      }
      // Ask the ENGINE whether it actually serves on the device: a pinned
      // or pruned plan may leave an assigned device idle, and re-deploying
      // over a spare that served nothing would charge a restart window (or
      // a migration storm) for no reason.  Idle leaves are bookkeeping.
      bool serving = false;
      if (reconfigurable_) {
        const std::vector<int> used = reconfigurable_->active_devices();
        serving = std::find(used.begin(), used.end(), ev.device) != used.end();
      }
      if (serving) {
        apply_target(sim, /*forced=*/true, "gpu_leave", ev.device);
      } else {
        active_ = pick_active();
      }
      break;
    }
    case ClusterEventKind::kGpuJoin:
      if (!available_.insert(ev.device).second) return;  // already here
      // A join never invalidates the running deployment -- adopting the
      // returned capacity is an optimization, so it is ELECTIVE (cooldown
      // applies).  Simultaneous rejoins therefore coalesce: the first one
      // re-deploys, the rest land on a later tick instead of charging one
      // teardown per device.
      apply_target(sim, /*forced=*/false, "gpu_join", ev.device);
      break;
    case ClusterEventKind::kLoadShift:
      signals_.load_forecast = ev.factor;
      break;
    case ClusterEventKind::kDeviceSlow:
    case ClusterEventKind::kLinkDegrade: {
      // Apply the measured condition to the shared cluster: the engine's
      // cost model prices it from the next iteration on.  The engine is
      // nudged to REPLAN only when the device crosses the straggler
      // threshold (either direction); sub-threshold wobble changes serving
      // speed but never triggers a re-deploy storm.
      const bool is_speed = ev.kind == ClusterEventKind::kDeviceSlow;
      const double before = is_speed ? mutable_cluster_->device_speed(ev.device)
                                     : mutable_cluster_->device_link_scale(ev.device);
      if (is_speed) {
        mutable_cluster_->set_device_speed(ev.device, ev.factor);
      } else {
        mutable_cluster_->set_device_link_scale(ev.device, ev.factor);
      }
      ++stats_.degradation_events;
      signals_.degraded_devices = count_degraded();
      const bool was = before < spec_.straggler_threshold;
      const bool now = ev.factor < spec_.straggler_threshold;
      if (was != now && reconfigurable_) {
        HETIS_INFO("Controller: device " << ev.device << " " << to_string(ev.kind) << " -> "
                                         << ev.factor << " at t=" << sim.now()
                                         << (now ? " (degraded)" : " (recovered)"));
        // Same device set, possibly a new layout (e.g. a straggling primary
        // demoted to an Attention worker).
        decide(sim, now ? "straggler_crossing" : "recovery_crossing", ev.device,
               "replan_in_place", /*forced=*/true, reconfigurable_->active_devices(), [&] {
                 reconfigurable_->on_degradation(sim);
                 return reconfigurable_->active_devices();
               });
      }
      break;
    }
    case ClusterEventKind::kPreemptNotice:
      ++stats_.preempt_notices;
      if (reconfigurable_) {
        decide(sim, "preempt_notice", ev.device, "evacuate", /*forced=*/true,
               reconfigurable_->active_devices(), [&] {
                 reconfigurable_->on_preempt_notice(sim, ev.device, ev.time + ev.factor);
                 return reconfigurable_->active_devices();
               });
      }
      break;
  }
}

int Controller::count_degraded() const {
  int n = 0;
  for (const auto& d : cluster_->devices()) {
    if (cluster_->device_speed(d.id) < spec_.straggler_threshold ||
        cluster_->device_link_scale(d.id) < spec_.straggler_threshold) {
      ++n;
    }
  }
  return n;
}

void Controller::refresh(ControlSignals& s, Seconds now, int active) const {
  s.now = now;
  // Requests re-prefilling after a preemption/restart count as queued:
  // on_prefill_done is deduped per request at the metrics layer, so the
  // arrived-minus-prefilled difference alone would go blind to restart
  // backlogs -- exactly when a reactive policy must see pressure.
  s.queue_depth = arrived_ - prefilled_ + reprefilling_.size();
  s.in_flight = arrived_ - finished_;
  s.kv_pressure = engine_ ? engine_->kv_fill_fraction() : 0.0;
  s.active_devices = active;
  s.available_devices = static_cast<int>(available_.size());
  s.degraded_devices = count_degraded();
}

bool Controller::tick(sim::Simulation& sim) {
  ++stats_.ticks;
  refresh(signals_, sim.now(), static_cast<int>(active_.size()));

  // The STANDING target is clamped to the cluster, not to current
  // availability: a static 12-device target must survive a dip to 8
  // available so the rejoin restores the full deployment.  pick_active()
  // applies the availability clamp at selection time.
  target_count_ = std::min(std::max(policy_->target_devices(signals_, target_count_),
                                    spec_.min_devices),
                           cluster_->num_devices());
  apply_target(sim, /*forced=*/false, "policy_tick");
  return sim.now() + spec_.tick <= spec_.horizon;
}

double Controller::device_seconds(Seconds until) const {
  // Before attach (empty history) the construction deployment spans the
  // whole cluster for the whole window.
  if (active_history_.empty()) return cluster_->num_devices() * std::max<Seconds>(0, until);
  double total = 0;
  for (std::size_t i = 0; i < active_history_.size(); ++i) {
    const Seconds start = active_history_[i].first;
    const Seconds end = std::min(
        i + 1 < active_history_.size() ? active_history_[i + 1].first : until, until);
    if (end <= start) continue;  // zero-width (same-instant re-deploys) or past `until`
    total += (end - start) * active_history_[i].second;
  }
  return total;
}

void Controller::decide(sim::Simulation& sim, const char* trigger, int device,
                        const char* action, bool forced, std::vector<int> devices_before,
                        const std::function<std::vector<int>()>& act) {
  std::string plan_before = reconfigurable_->plan_digest();
  const int searches_before = reconfigurable_->reconfig_stats().plan_searches;
  std::vector<int> devices_after = act();
  telemetry::AuditRecord rec;
  rec.time = sim.now();
  rec.trigger = trigger;
  rec.action = action;
  rec.forced = forced;
  rec.device = device;
  // The SLO EWMA carries its latest state; the counted signals are
  // re-derived NOW, so a churn-driven decision between ticks audits the
  // queue it actually saw.
  rec.signals = signals_;
  refresh(rec.signals, sim.now(), static_cast<int>(devices_before.size()));
  rec.devices_before = std::move(devices_before);
  rec.devices_after = std::move(devices_after);
  rec.plan_before = std::move(plan_before);
  rec.plan_after = reconfigurable_->plan_digest();
  const parallel::SearchDiagnostics* d = reconfigurable_->last_search_diagnostics();
  // Only a decision that searched (or replayed a search) gets a search
  // block; otherwise `d` still describes an earlier decision's search.
  if (d != nullptr && reconfigurable_->reconfig_stats().plan_searches != searches_before) {
    rec.has_diagnostics = true;
    rec.diagnostics = *d;
    // Host wall-clock, the one non-sim field: zeroed so every audit
    // artifact stays byte-reproducible across runs and --jobs levels
    // (bench_search_overhead measures search wall time where it belongs).
    rec.diagnostics.wall_time = 0;
  }
  engine_->metrics().on_decision(rec);
}

void Controller::on_arrival(const workload::Request&) { ++arrived_; }

void Controller::on_prefill_done(workload::RequestId, Seconds) { ++prefilled_; }

void Controller::on_reprefill_done(workload::RequestId id, Seconds) { reprefilling_.erase(id); }

void Controller::on_finish(workload::RequestId id, Seconds) {
  ++finished_;
  // The collector stamps the finish before it fans the event out, so the
  // record grades exactly as run_trace will.
  const double sample = engine::meets_slo(engine_->metrics().record(id), spec_.slo) ? 1.0 : 0.0;
  if (!slo_seeded_) {
    signals_.slo_attainment = sample;
    slo_seeded_ = true;
  } else {
    signals_.slo_attainment =
        spec_.signal_alpha * sample + (1.0 - spec_.signal_alpha) * signals_.slo_attainment;
  }
  reprefilling_.erase(id);
}

void Controller::on_preempt(workload::RequestId id, Seconds) {
  // Before its first prefill completes a request is still counted queued
  // by arrived_ - prefilled_ (Splitwise emits the first token only when
  // the KV migration lands, so a restart can preempt a prefilled request
  // that has not reached on_prefill_done yet).
  if (engine_->metrics().record(id).first_token < 0) return;
  reprefilling_.insert(id);
}

}  // namespace hetis::control
