#include "src/cloud/server.h"

#include <algorithm>

namespace zombie::cloud {

std::string_view RoleName(Role r) {
  switch (r) {
    case Role::kGlobalController:
      return "global-mem-ctr";
    case Role::kSecondaryController:
      return "secondary-ctr";
    case Role::kUser:
      return "user";
    case Role::kZombie:
      return "zombie";
    case Role::kActive:
      return "active";
  }
  return "?";
}

Server::Server(remotemem::ServerId id, std::string hostname, acpi::MachineProfile profile,
               ServerCapacity capacity, bool sz_capable)
    : id_(id),
      machine_(std::move(hostname), std::move(profile), sz_capable),
      capacity_(capacity) {}

Status Server::HostVm(const hv::VmSpec& vm, Bytes local_bytes) {
  if (vms_.contains(vm.id)) {
    return Status(ErrorCode::kConflict, "VM already hosted here");
  }
  if (local_bytes > vm.reserved_memory) {
    return Status(ErrorCode::kInvalidArgument, "local share exceeds reserved memory");
  }
  if (used_cpus_ + vm.vcpus > capacity_.cpus) {
    return Status(ErrorCode::kOutOfMemory, "no vCPU capacity");
  }
  if (used_local_ + local_bytes > capacity_.memory - lent_memory_) {
    return Status(ErrorCode::kOutOfMemory, "no local memory capacity");
  }
  vms_.emplace(vm.id, vm);
  vm_local_bytes_.emplace(vm.id, local_bytes);
  used_cpus_ += vm.vcpus;
  used_local_ += local_bytes;
  return Status::Ok();
}

Status Server::DropVm(hv::VmId vm) {
  auto hosted = vms_.find(vm);
  if (hosted == vms_.end()) {
    return Status(ErrorCode::kNotFound, "VM not hosted here");
  }
  auto local = vm_local_bytes_.find(vm);
  used_cpus_ -= hosted->second.vcpus;
  used_local_ -= local->second;
  vms_.erase(hosted);
  vm_local_bytes_.erase(local);
  return Status::Ok();
}

Bytes Server::LocalBytesOf(hv::VmId vm) const {
  auto it = vm_local_bytes_.find(vm);
  return it == vm_local_bytes_.end() ? 0 : it->second;
}

Bytes Server::FreeLocalMemory() const {
  const Bytes used = used_local_ + lent_memory_;
  return used >= capacity_.memory ? 0 : capacity_.memory - used;
}

double Server::CpuUtilization() const {
  if (capacity_.cpus == 0) {
    return 0.0;
  }
  return std::min(1.0, static_cast<double>(used_cpus_) / static_cast<double>(capacity_.cpus));
}

}  // namespace zombie::cloud
