// VM migration protocols (Section 5.3, evaluated in Fig. 9).
//
//  * Vanilla pre-copy: iteratively transfers dirtied pages while the VM
//    runs; the hypervisor performs a fixed number of iterations, so the
//    migration time tracks the VM's full memory size and is almost
//    insensitive to the working set.
//  * ZombieStack: stop the VM, copy only the local hot part (the
//    replacement policy keeps ~the WSS local, capped by the local share),
//    re-home the ownership pointers of the remote buffers, resume.  Remote
//    cold pages never move.
#ifndef ZOMBIELAND_SRC_MIGRATION_MIGRATION_H_
#define ZOMBIELAND_SRC_MIGRATION_MIGRATION_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/hv/vm.h"

namespace zombie::migration {

// Effective migration bandwidth between hosts (pre-copy streams and the
// stop-and-copy phase share it).
inline constexpr double kMigrationBandwidthBytesPerNs = 1.2;  // ~1.2 GB/s effective
// Pre-copy rounds before the final stop-and-copy (fixed, per the paper).
inline constexpr int kPrecopyIterations = 5;
// Per-buffer ownership-pointer update (an RPC to the global controller).
inline constexpr Duration kOwnershipUpdateCost = 40 * kMicrosecond;
// Fixed protocol setup cost (creating the listening VM etc.).
inline constexpr Duration kMigrationSetupCost = 150 * kMillisecond;
// Fraction of the WSS dirtied per second while the VM keeps running, unless
// the caller states its own.
inline constexpr double kDefaultDirtyWssFractionPerSec = 0.08;

struct RoundRecord {
  Bytes transferred = 0;
  Duration duration = 0;
};

struct MigrationEstimate {
  Duration total_time = 0;
  Duration downtime = 0;   // VM stopped
  Bytes bytes_moved = 0;
  std::vector<RoundRecord> rounds;

  double seconds() const { return ToSeconds(total_time); }
};

// Vanilla iterative pre-copy of the full VM memory, while the VM dirties
// `dirty_wss_fraction_per_sec` of its working set per second.
MigrationEstimate PreCopyMigrate(
    const hv::VmSpec& vm, double dirty_wss_fraction_per_sec = kDefaultDirtyWssFractionPerSec);

// ZombieStack migration: `local_fraction` of the VM's reserved memory is
// local (the hot part, bounded by the WSS); `remote_buffers` ownership
// pointers are updated instead of moving remote pages.  The VM is stopped
// for its single copy, so its dirty rate does not matter.
MigrationEstimate ZombieMigrate(const hv::VmSpec& vm, double local_fraction,
                                std::size_t remote_buffers);

}  // namespace zombie::migration

#endif  // ZOMBIELAND_SRC_MIGRATION_MIGRATION_H_
