// VM consolidation (Section 5.2), following OpenStack Neat's four steps:
//   1. determine underloaded hosts (migrate everything away, suspend them);
//   2. determine overloaded hosts (migrate some VMs to restore QoS);
//   3. select the VMs to migrate;
//   4. place the selected VMs (waking suspended hosts if necessary).
//
// The ZombieStack variant differs from vanilla Neat in two ways:
//   * emptied hosts go to Sz (memory lent to the pool) instead of S3;
//   * the placement constraint is relaxed — a target only needs a fraction
//     of the VM's working set locally (30% per the paper).
// Waking a suspended host when nothing fits (the paper's preference for the
// zombie serving the fewest allocated buffers) is modelled by the DC
// simulator (sim/dc_sim.cc), not planned here.
#ifndef ZOMBIELAND_SRC_CLOUD_CONSOLIDATION_H_
#define ZOMBIELAND_SRC_CLOUD_CONSOLIDATION_H_

#include <cstdint>
#include <vector>

#include "src/cloud/placement.h"
#include "src/cloud/server.h"
#include "src/common/units.h"
#include "src/hv/vm.h"

namespace zombie::cloud {

enum class ConsolidationMode : std::uint8_t {
  kNeat = 0,         // vanilla: full-booking placement, S3 suspend
  kZombieStack = 1,  // relaxed placement, Sz suspend
};

struct ConsolidationConfig {
  ConsolidationMode mode = ConsolidationMode::kZombieStack;
  double underload_cpu_threshold = 0.20;  // below: drain and suspend
  double overload_cpu_threshold = 0.90;   // above: offload VMs
  // ZombieStack placement constraint: fraction of the VM's *working set*
  // required locally ("we modify this constraint to only check if 30% of
  // the VM's working set size is available on the target server").
  double wss_local_fraction = 0.30;
};

struct MigrationOrder {
  hv::VmId vm = 0;
  remotemem::ServerId from = remotemem::kNilServer;
  remotemem::ServerId to = remotemem::kNilServer;
};

struct ConsolidationPlan {
  std::vector<MigrationOrder> migrations;
  std::vector<remotemem::ServerId> hosts_to_suspend;

  bool empty() const { return migrations.empty() && hosts_to_suspend.empty(); }
};

// Pure planner: inspects hosts and produces a plan; the caller (rack or DC
// simulator) executes it.
class NeatPlanner {
 public:
  explicit NeatPlanner(ConsolidationConfig config = {}) : config_(config) {}

  const ConsolidationConfig& config() const { return config_; }

  ConsolidationPlan Plan(const std::vector<Server*>& hosts) const;

 private:
  // True if `host` can absorb `vm` under the mode's memory constraint.
  bool FitsForMigration(const Server& host, const hv::VmSpec& vm,
                        Bytes incoming_memory, std::uint32_t incoming_cpus) const;
  Bytes RequiredLocalMemory(const hv::VmSpec& vm) const;

  ConsolidationConfig config_;
};

}  // namespace zombie::cloud

#endif  // ZOMBIELAND_SRC_CLOUD_CONSOLIDATION_H_
