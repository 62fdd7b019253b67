#include "src/serve/daemon.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "src/common/report.h"

namespace zombie::serve {
namespace {

// Page-service cost of a purely local placement: DRAM-class, used as the
// deterministic "fast mode" of the bimodal fault-service distribution.
constexpr double kLocalFaultServiceUs = 0.12;

}  // namespace

ServeDaemon::ServeDaemon(ServeConfig config)
    : config_(config),
      admission_(config.admission),
      scheduler_(cloud::PlacementConfig{.local_memory_floor = config.local_floor,
                                        .strategy = config.strategy}) {
  cloud::RackConfig rack_config;
  rack_config.buff_size = config_.buff_size;
  rack_config.controller_shards = config_.controller_shards;
  rack_config.lease_ttl = config_.lease_ttl;
  rack_config.tick_period = config_.tick_period;
  rack_ = std::make_unique<cloud::Rack>(rack_config);

  for (std::size_t i = 0; i < config_.hosts; ++i) {
    auto& host = rack_->AddServer("host" + std::to_string(i + 1), config_.profile,
                                  config_.host_capacity);
    host_ids_.push_back(host.id());
    registered_[host.id()] = {config_.host_capacity.memory, config_.host_capacity.cpus};
    admission_.AddCapacity(config_.host_capacity.memory, config_.host_capacity.cpus);
  }
  for (std::size_t i = 0; i < config_.zombies; ++i) {
    auto& z = rack_->AddServer("z" + std::to_string(i + 1), config_.profile,
                               config_.host_capacity);
    Status pushed = rack_->PushToZombie(z.id());
    if (!pushed.ok()) {
      setup_error_ = Status(pushed.code(), "push to zombie failed: " + pushed.message());
      return;
    }
    zombie_ids_.push_back(z.id());
    // §4.4: zombie memory backs guaranteed reservations (it serves buffers
    // from Sz), but a zombie contributes no schedulable vCPUs until woken.
    registered_[z.id()] = {z.lent_memory(), 0};
    admission_.AddCapacity(z.lent_memory(), 0);
  }

  if (config_.tenant_memory_quota > 0) {
    for (std::uint32_t t = 0; t < config_.tenants; ++t) {
      admission_.SetTenantQuota(t, {.memory = config_.tenant_memory_quota});
    }
  }
  if (config_.throttle.rate_per_s > 0.0) {
    admission_.ConfigureThrottle(config_.throttle);
  }
}

Status ServeDaemon::Run(const std::vector<Request>& timeline,
                        const cloud::FaultPlan* faults) {
  if (!setup_error_.ok()) {
    return setup_error_;
  }
  if (ran_) {
    return Status(ErrorCode::kFailedPrecondition, "ServeDaemon::Run already ran");
  }
  ran_ = true;

  SimTime end = 0;
  for (const Request& req : timeline) {
    end = std::max(end, req.at);
  }
  end += config_.queue_timeout + 2 * config_.tick_period;
  std::optional<cloud::FaultInjector> injector;
  if (faults != nullptr) {
    for (const cloud::FaultEvent& event : faults->events) {
      end = std::max(end, event.at + event.duration + config_.lease_ttl +
                              2 * config_.tick_period);
    }
    injector.emplace(rack_.get(), *faults);
  }
  cloud::FaultInjector* inj = injector.has_value() ? &*injector : nullptr;

  // The timeline and the ticks are streamed beside the queue, which holds
  // only what the run schedules.  Requests fire in (time, timeline index)
  // order, a time before the start clamped to it.  At a shared instant the
  // rack advances first (lease renewal, fault injection, expiry sweeps), then
  // the timeline's requests fire, then the queued events.
  std::vector<std::uint32_t> order(timeline.size());
  std::iota(order.begin(), order.end(), 0u);
  const auto fires_at = [&timeline](std::uint32_t i) {
    return std::max<SimTime>(timeline[i].at, 0);
  };
  const auto earlier = [&fires_at](std::uint32_t a, std::uint32_t b) {
    return fires_at(a) < fires_at(b);
  };
  if (!std::is_sorted(order.begin(), order.end(), earlier)) {
    std::stable_sort(order.begin(), order.end(), earlier);
  }
  std::size_t next = 0;
  SimTime tick_at = config_.tick_period;
  while (true) {
    const SimTime queued = queue_.NextEventTime();
    const SimTime tick = tick_at <= end ? tick_at : EventQueue::kNever;
    const SimTime request = next < order.size() ? fires_at(order[next]) : EventQueue::kNever;
    if (tick <= request && tick <= queued) {
      if (tick == EventQueue::kNever) {
        break;
      }
      queue_.AdvanceTo(tick);
      OnTick(inj);
      tick_at += config_.tick_period;
    } else if (request <= queued) {
      queue_.AdvanceTo(request);
      const Request& req = timeline[order[next++]];
      switch (req.kind) {
        case RequestKind::kArrive:
          OnArrive(req);
          break;
        case RequestKind::kDepart:
          OnDepart(req);
          break;
        case RequestKind::kResize:
          OnResize(req);
          break;
      }
    } else {
      queue_.Step();
    }
  }
  return Status::Ok();
}

void ServeDaemon::OnArrive(const Request& req) {
  ++metrics_.arrivals;
  // The admission gate is a serial server: one verdict per admission_service.
  // Arrivals queue behind it, so admission wait is real queueing latency that
  // grows with the arrival rate.
  const SimTime decide_at =
      std::max(queue_.now(), gate_free_at_) + config_.admission_service;
  gate_free_at_ = decide_at;
  // `req` lives in the timeline, and Run returns only once the queue drains.
  queue_.ScheduleAt(decide_at, [this, &req] { Decide(req, req.at); });
}

void ServeDaemon::Decide(const Request& req, SimTime arrived_at) {
  const cloud::AdmissionReject verdict =
      admission_.AdmitAt(queue_.now(), req.tenant, req.vm);
  switch (verdict) {
    case cloud::AdmissionReject::kNone:
      break;
    case cloud::AdmissionReject::kThrottled:
      Shed(ShedReason::kThrottled, 0);
      return;
    case cloud::AdmissionReject::kTenantMemory:
    case cloud::AdmissionReject::kTenantCpu:
      Shed(ShedReason::kTenantQuota, 0);
      return;
    default:  // rack budget (and the never-generated duplicate/empty cases)
      Shed(ShedReason::kRackBudget, 0);
      return;
  }

  ++metrics_.admitted;
  const Duration wait = queue_.now() - arrived_at;
  metrics_.admission_wait_ms.Add(ToSeconds(wait) * 1e3);
  if (wait > kSloAdmissionTarget) {
    ++metrics_.slo_violations;
  }
  if (!TryPlace(req, arrived_at, 0)) {
    Enqueue(req, arrived_at);
  }
}

std::vector<cloud::Server*> ServeDaemon::AwakeHosts() {
  std::vector<cloud::Server*> out;
  for (remotemem::ServerId id : host_ids_) {
    cloud::Server* server = rack_->FindServer(id);
    if (server != nullptr && !rack_->HostDead(id)) {
      out.push_back(server);
    }
  }
  return out;
}

bool ServeDaemon::TryPlace(const Request& req, SimTime arrived_at, Duration stall) {
  scheduler_.set_remote_pool(rack_->plane().FreeRemoteBytes());
  const auto decision = scheduler_.Place(AwakeHosts(), req.vm);
  if (!decision.has_value()) {
    return false;
  }
  cloud::Server* host = rack_->FindServer(decision->host);
  if (host == nullptr || !host->HostVm(req.vm, decision->local_bytes).ok()) {
    return false;
  }
  remotemem::RemoteExtent* extent = nullptr;
  if (decision->remote_bytes > 0) {
    auto alloc = rack_->manager(decision->host).AllocExtension(decision->remote_bytes);
    if (!alloc.ok()) {
      (void)host->DropVm(req.vm.id);
      return false;
    }
    extent = alloc.value();
  }

  Placement placement;
  placement.host = decision->host;
  placement.extent = extent;
  placement.booked = req.vm.reserved_memory;
  placement.booked_vcpus = req.vm.vcpus;
  placements_[req.vm.id] = std::move(placement);

  ++metrics_.placed;
  const Duration latency = queue_.now() - arrived_at;
  metrics_.placement_ms.Add(ToSeconds(latency) * 1e3);
  if (latency > kSloPlacementTarget) {
    ++metrics_.slo_violations;
  }
  if (stall > 0) {
    metrics_.migration_stall_ms.Add(ToSeconds(stall) * 1e3);
  }
  // Bimodal page-service cost: remote-backed placements pay a one-sided
  // fabric read per fault, purely local ones a DRAM-class access.
  if (extent != nullptr) {
    metrics_.fault_service_us.Add(ToSeconds(rdma::OneSidedCost(kPageSize)) * 1e6);
  } else {
    metrics_.fault_service_us.Add(kLocalFaultServiceUs);
  }
  return true;
}

void ServeDaemon::Enqueue(const Request& req, SimTime arrived_at) {
  if (pending_.size() >= config_.queue_depth) {
    Shed(ShedReason::kQueueFull, req.vm.id);
    return;
  }
  Pending pending;
  pending.req = req;
  pending.arrived_at = arrived_at;
  const hv::VmId vm = req.vm.id;
  pending.timeout_id = queue_.ScheduleAfter(config_.queue_timeout, [this, vm] {
    const auto it =
        std::find_if(pending_.begin(), pending_.end(),
                     [vm](const Pending& p) { return p.req.vm.id == vm; });
    if (it != pending_.end()) {
      pending_.erase(it);
      Shed(ShedReason::kQueueTimeout, vm);
    }
  });
  pending_.push_back(std::move(pending));
  MaybeWakeZombie();
}

void ServeDaemon::Shed(ShedReason reason, hv::VmId admitted_vm) {
  ++metrics_.shed[static_cast<std::size_t>(reason)];
  if (admitted_vm != 0) {
    (void)admission_.Release(admitted_vm);
  }
}

void ServeDaemon::DrainPending(Duration stall) {
  while (!pending_.empty()) {
    Pending& head = pending_.front();
    if (!TryPlace(head.req, head.arrived_at, stall)) {
      break;  // FIFO: head-of-line blocking, no overtaking
    }
    queue_.Cancel(head.timeout_id);
    pending_.pop_front();
  }
}

void ServeDaemon::MaybeWakeZombie() {
  if (wake_in_flight_ || zombie_ids_.empty()) {
    return;
  }
  const remotemem::ServerId id = zombie_ids_.front();
  auto woke = rack_->WakeServer(id);
  if (!woke.ok()) {
    return;  // e.g. the zombie died mid-plan; retry on the next enqueue
  }
  zombie_ids_.erase(zombie_ids_.begin());
  ++metrics_.zombie_wakes;
  wake_in_flight_ = true;

  // The wake reclaims the zombie's lent memory from the pool and returns it
  // as local capacity with schedulable vCPUs: swap its admission-budget
  // contribution from (lent, 0) to the full server shape.
  const auto registered = registered_[id];
  admission_.RemoveCapacity(registered.first, registered.second);
  admission_.AddCapacity(config_.host_capacity.memory, config_.host_capacity.cpus);
  registered_[id] = {config_.host_capacity.memory, config_.host_capacity.cpus};

  // The host only joins the placement pool once the resume completes: every
  // request placed in that window — the backlog drained right after, or a
  // fresh arrival that had to queue behind it — pays the wake latency as a
  // migration stall.
  const Duration latency = woke.value();
  queue_.ScheduleAfter(latency, [this, id, latency] {
    wake_in_flight_ = false;
    // The zombie may have crashed mid-resume (lease expiry unregistered it);
    // a dead host must not re-enter the pool.
    if (registered_.contains(id)) {
      host_ids_.push_back(id);
    }
    DrainPending(latency);
    if (!pending_.empty()) {
      MaybeWakeZombie();  // backlog persists: wake the next zombie
    }
  });
}

void ServeDaemon::ReleaseVmResources(hv::VmId vm, Placement& placement) {
  cloud::Server* host = rack_->FindServer(placement.host);
  if (host != nullptr && host->Hosts(vm)) {
    (void)host->DropVm(vm);
  }
  // Extent release is best-effort: after a fault some buffers may already
  // have been reclaimed by the lease sweep, which is not a leak.
  if (placement.extent != nullptr) {
    (void)rack_->manager(placement.host).ReleaseExtent(placement.extent);
  }
  for (remotemem::RemoteExtent* growth : placement.growths) {
    (void)rack_->manager(placement.host).ReleaseExtent(growth);
  }
}

void ServeDaemon::OnDepart(const Request& req) {
  const hv::VmId vm = req.vm.id;
  auto placed = placements_.find(vm);
  if (placed != placements_.end()) {
    ReleaseVmResources(vm, placed->second);
    placements_.erase(placed);
    (void)admission_.Release(vm);
    ++metrics_.departed;
    DrainPending(0);
    return;
  }
  const auto queued =
      std::find_if(pending_.begin(), pending_.end(),
                   [vm](const Pending& p) { return p.req.vm.id == vm; });
  if (queued != pending_.end()) {
    queue_.Cancel(queued->timeout_id);
    pending_.erase(queued);
    (void)admission_.Release(vm);
    ++metrics_.cancelled;
    return;
  }
  // Shed at admission or lost to a fault: nothing to tear down.
}

void ServeDaemon::OnResize(const Request& req) {
  const hv::VmId vm = req.vm.id;
  if (!admission_.IsAdmitted(vm)) {
    ++metrics_.resize_rejected;  // departed, shed or expired before the resize
    return;
  }
  auto placed = placements_.find(vm);
  const Bytes old_booked = placed != placements_.end() ? placed->second.booked : 0;
  const std::uint32_t old_vcpus =
      placed != placements_.end() ? placed->second.booked_vcpus : req.vm.vcpus;

  const cloud::AdmissionReject verdict =
      admission_.Resize(vm, req.vm.reserved_memory, req.vm.vcpus);
  if (verdict != cloud::AdmissionReject::kNone) {
    ++metrics_.resize_rejected;
    return;
  }

  if (placed == placements_.end()) {
    // Still queued: update the waiting booking so placement uses the new
    // shape (admission already re-booked it).
    const auto queued =
        std::find_if(pending_.begin(), pending_.end(),
                     [vm](const Pending& p) { return p.req.vm.id == vm; });
    if (queued != pending_.end()) {
      queued->req.vm = req.vm;
    }
    ++metrics_.resized;
    return;
  }

  // Placed VM: grow-only memory hotplug backed entirely by remote memory
  // (RAM Ext) — local shares are fixed at placement time.
  if (req.vm.reserved_memory > old_booked) {
    const Bytes delta = req.vm.reserved_memory - old_booked;
    auto alloc = rack_->manager(placed->second.host).AllocExtension(delta);
    if (!alloc.ok()) {
      // The pool cannot back the growth: restore the old booking.
      (void)admission_.Resize(vm, old_booked, old_vcpus);
      ++metrics_.resize_rejected;
      return;
    }
    placed->second.growths.push_back(alloc.value());
  }
  placed->second.booked = req.vm.reserved_memory;
  placed->second.booked_vcpus = req.vm.vcpus;
  ++metrics_.resized;
}

void ServeDaemon::OnTick(cloud::FaultInjector* injector) {
  if (injector != nullptr) {
    injector->AdvanceTo(queue_.now());
  }
  const auto expired = rack_->Tick();
  for (const auto& record : expired) {
    // The control plane expelled this host: its admission contribution is
    // gone, and so are the VMs it hosted (their users were already notified
    // through US_reclaim by the lease sweep).
    auto registered = registered_.find(record.host);
    if (registered != registered_.end()) {
      admission_.RemoveCapacity(registered->second.first, registered->second.second);
      registered_.erase(registered);
    }
    host_ids_.erase(std::remove(host_ids_.begin(), host_ids_.end(), record.host),
                    host_ids_.end());
    zombie_ids_.erase(std::remove(zombie_ids_.begin(), zombie_ids_.end(), record.host),
                      zombie_ids_.end());
    cloud::Server* server = rack_->FindServer(record.host);
    for (auto it = placements_.begin(); it != placements_.end();) {
      if (it->second.host == record.host) {
        if (server != nullptr && server->Hosts(it->first)) {
          (void)server->DropVm(it->first);  // evicted with its host
        }
        // The lease sweep already released the buffers these extents were
        // consuming; releasing them again would corrupt pool accounting.
        (void)admission_.Release(it->first);
        ++metrics_.cancelled;
        it = placements_.erase(it);
      } else {
        ++it;
      }
    }
  }
  metrics_.power_pct.Add(rack_->TotalPowerPercent());
  DrainPending(0);
}

Status ServeDaemon::CheckHealth() const {
  ZOMBIE_RETURN_IF_ERROR(rack_->plane().CheckInvariants());
  const auto orphaned = rack_->plane().OrphanedBuffers(rack_->now());
  if (!orphaned.empty()) {
    return Status(ErrorCode::kFailedPrecondition,
                  report::StrPrintf("%zu orphaned buffers after the run",
                                    orphaned.size()));
  }
  return Status::Ok();
}

}  // namespace zombie::serve
