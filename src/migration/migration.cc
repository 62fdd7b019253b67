#include "src/migration/migration.h"

#include <algorithm>
#include <cmath>

namespace zombie::migration {

namespace {

Duration TransferTime(Bytes bytes) {
  return static_cast<Duration>(static_cast<double>(bytes) / kMigrationBandwidthBytesPerNs);
}

}  // namespace

MigrationEstimate PreCopyMigrate(const hv::VmSpec& vm, double dirty_wss_fraction_per_sec) {
  MigrationEstimate est;
  est.total_time = kMigrationSetupCost;

  // Round 1: the whole reserved memory.
  Bytes to_send = vm.reserved_memory;
  for (int round = 0; round < kPrecopyIterations; ++round) {
    const Duration dt = TransferTime(to_send);
    est.rounds.push_back({to_send, dt});
    est.total_time += dt;
    est.bytes_moved += to_send;
    // Pages dirtied while this round streamed become the next round's load,
    // bounded by the working set (only WSS pages get written).
    const double dirtied =
        dirty_wss_fraction_per_sec * static_cast<double>(vm.working_set) * ToSeconds(dt);
    to_send = std::min<Bytes>(vm.working_set, static_cast<Bytes>(dirtied));
    if (to_send < 16 * kPageSize) {
      break;  // converged below the stop-and-copy threshold
    }
  }
  // Final stop-and-copy of the residual dirty set.
  const Duration stop = TransferTime(to_send);
  est.rounds.push_back({to_send, stop});
  est.total_time += stop;
  est.downtime = stop;
  est.bytes_moved += to_send;
  return est;
}

MigrationEstimate ZombieMigrate(const hv::VmSpec& vm, double local_fraction,
                                std::size_t remote_buffers) {
  MigrationEstimate est;
  est.total_time = kMigrationSetupCost;

  // The local hot part: the replacement policy keeps hot pages local, so the
  // resident set is min(WSS, local share of reserved memory).
  local_fraction = std::clamp(local_fraction, 0.0, 1.0);
  const Bytes local_share =
      static_cast<Bytes>(local_fraction * static_cast<double>(vm.reserved_memory));
  const Bytes hot_part = std::min<Bytes>(vm.working_set, local_share);

  // Stop-and-copy of the hot part (post-copy-style: the VM resumes on the
  // destination as soon as its active part has landed).
  const Duration copy = TransferTime(hot_part);
  est.rounds.push_back({hot_part, copy});
  est.bytes_moved = hot_part;
  est.total_time += copy;
  est.downtime = copy;

  // Remote memory needs no migration — only ownership-pointer updates.
  const Duration pointer_updates = static_cast<Duration>(remote_buffers) * kOwnershipUpdateCost;
  est.total_time += pointer_updates;
  return est;
}

}  // namespace zombie::migration
