// Remote-memory-aware VM placement (Section 5.1).
//
// Mirrors Nova's two phases: FILTER the servers able to host the VM, then
// WEIGH the survivors by the placement strategy, fused into one pass that
// keeps the best qualifying host.  The zombie change is the relaxed memory
// filter: a host qualifies if it can give the VM at least
// `local_memory_floor` (default 50%) of its reserved memory locally, with
// the remainder coming from the rack's remote pool.
#ifndef ZOMBIELAND_SRC_CLOUD_PLACEMENT_H_
#define ZOMBIELAND_SRC_CLOUD_PLACEMENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/cloud/server.h"
#include "src/common/units.h"
#include "src/hv/vm.h"

namespace zombie::cloud {

enum class PlacementStrategy : std::uint8_t {
  kStack = 0,   // pack onto the fullest qualifying host (consolidation)
  kSpread = 1,  // balance across hosts
};

struct PlacementConfig {
  // Minimum fraction of the VM's reserved memory that must be local
  // ("Our results show that 50% local memory availability is a good,
  // conservative compromise").  1.0 reproduces vanilla Nova.
  double local_memory_floor = 0.5;
  PlacementStrategy strategy = PlacementStrategy::kStack;
  // Remote memory available in the rack (checked when local < reserved).
  Bytes remote_pool_available = 0;
};

struct PlacementDecision {
  remotemem::ServerId host = remotemem::kNilServer;
  Bytes local_bytes = 0;   // taken from the host's RAM
  Bytes remote_bytes = 0;  // to allocate from the pool
};

class NovaScheduler {
 public:
  explicit NovaScheduler(PlacementConfig config = {}) : config_(config) {}

  const PlacementConfig& config() const { return config_; }
  void set_remote_pool(Bytes available) { config_.remote_pool_available = available; }

  // The best host able to take `vm` under the strategy; nullopt when no
  // host qualifies.
  std::optional<PlacementDecision> Place(const std::vector<Server*>& hosts,
                                         const hv::VmSpec& vm) const;

 private:
  bool Qualifies(const Server& host, const hv::VmSpec& vm) const;

  PlacementConfig config_;
};

}  // namespace zombie::cloud

#endif  // ZOMBIELAND_SRC_CLOUD_PLACEMENT_H_
