// A rack server in ZombieStack: an ACPI machine plus cloud-level capacity
// bookkeeping and one of the five roles of Fig. 7.
#ifndef ZOMBIELAND_SRC_CLOUD_SERVER_H_
#define ZOMBIELAND_SRC_CLOUD_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/acpi/machine.h"
#include "src/common/units.h"
#include "src/hv/vm.h"
#include "src/rdma/fabric.h"
#include "src/remotemem/types.h"

namespace zombie::cloud {

// The five roles of Fig. 7.  A server's role can change over time (an active
// server may become a zombie, a user may become plain active...).
enum class Role : std::uint8_t {
  kGlobalController = 0,
  kSecondaryController,
  kUser,      // consumes remote memory
  kZombie,    // serves memory from Sz
  kActive,    // serves memory while running
};

std::string_view RoleName(Role r);

struct ServerCapacity {
  std::uint32_t cpus = 8;
  Bytes memory = 16 * kGiB;  // the testbed machines carry 16 GB
};

class Server {
 public:
  Server(remotemem::ServerId id, std::string hostname, acpi::MachineProfile profile,
         ServerCapacity capacity, bool sz_capable = true);

  remotemem::ServerId id() const { return id_; }
  const std::string& hostname() const { return machine_.hostname(); }
  acpi::Machine& machine() { return machine_; }
  const acpi::Machine& machine() const { return machine_; }
  const ServerCapacity& capacity() const { return capacity_; }

  Role role() const { return role_; }
  void set_role(Role r) { role_ = r; }

  rdma::NodeId node() const { return node_; }
  void set_node(rdma::NodeId n) { node_ = n; }

  // ---- VM hosting ---------------------------------------------------------
  // `local_bytes` is the part of the VM's reserved memory taken from this
  // host's RAM (the rest lives in remote buffers).
  [[nodiscard]] Status HostVm(const hv::VmSpec& vm, Bytes local_bytes);
  [[nodiscard]] Status DropVm(hv::VmId vm);
  bool Hosts(hv::VmId vm) const { return vms_.contains(vm); }
  const std::map<hv::VmId, hv::VmSpec>& vms() const { return vms_; }
  Bytes LocalBytesOf(hv::VmId vm) const;

  // Running totals over the hosted VMs, kept by HostVm / DropVm.
  std::uint32_t UsedCpus() const { return used_cpus_; }
  Bytes UsedLocalMemory() const { return used_local_; }
  Bytes FreeLocalMemory() const;
  double CpuUtilization() const;  // booked-cpu proxy in [0,1]

  // Memory currently lent to the pool (tracked by the rack layer).
  Bytes lent_memory() const { return lent_memory_; }
  void set_lent_memory(Bytes b) { lent_memory_ = b; }

 private:
  remotemem::ServerId id_;
  acpi::Machine machine_;
  ServerCapacity capacity_;
  Role role_ = Role::kActive;
  rdma::NodeId node_ = rdma::kInvalidNode;
  std::map<hv::VmId, hv::VmSpec> vms_;
  std::map<hv::VmId, Bytes> vm_local_bytes_;
  std::uint32_t used_cpus_ = 0;
  Bytes used_local_ = 0;
  Bytes lent_memory_ = 0;
};

}  // namespace zombie::cloud

#endif  // ZOMBIELAND_SRC_CLOUD_SERVER_H_
