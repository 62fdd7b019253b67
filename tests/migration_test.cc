// Unit tests for the migration protocols (Fig. 9 behaviours).
#include <gtest/gtest.h>

#include "src/migration/migration.h"

namespace zombie::migration {
namespace {

hv::VmSpec MakeVm(Bytes reserved, Bytes wss) {
  hv::VmSpec vm;
  vm.id = 1;
  vm.reserved_memory = reserved;
  vm.working_set = wss;
  return vm;
}

TEST(PreCopy, FirstRoundMovesFullMemory) {
  const auto vm = MakeVm(4 * kGiB, 1 * kGiB);
  const auto est = PreCopyMigrate(vm);
  ASSERT_GE(est.rounds.size(), 2u);
  EXPECT_EQ(est.rounds[0].transferred, 4 * kGiB);
  EXPECT_GE(est.bytes_moved, 4 * kGiB);
  EXPECT_GT(est.downtime, 0);
}

TEST(PreCopy, TimeInsensitiveToWss) {
  // The paper: "the migration time is almost not affected by the WSS".
  const auto small = PreCopyMigrate(MakeVm(4 * kGiB, 512 * kMiB));
  const auto large = PreCopyMigrate(MakeVm(4 * kGiB, 3 * kGiB));
  const double ratio = static_cast<double>(large.total_time) /
                       static_cast<double>(small.total_time);
  EXPECT_LT(ratio, 1.6);  // mild growth only
  EXPECT_GT(ratio, 1.0);
}

TEST(PreCopy, ConvergesWithLowDirtyRate) {
  const auto est =
      PreCopyMigrate(MakeVm(1 * kGiB, 512 * kMiB), /*dirty_wss_fraction_per_sec=*/0.01);
  // With a near-idle VM the iterations converge before the cap.
  EXPECT_LT(est.rounds.size(), 6u);
  EXPECT_LT(est.downtime, 100 * kMillisecond);
}

TEST(ZombieMigration, MovesOnlyTheHotLocalPart) {
  const auto vm = MakeVm(4 * kGiB, 1 * kGiB);
  const auto est = ZombieMigrate(vm, /*local_fraction=*/0.5, /*remote_buffers=*/8);
  // Hot part = min(WSS, 50% of reserved) = 1 GiB.
  EXPECT_EQ(est.bytes_moved, 1 * kGiB);
  EXPECT_LT(est.bytes_moved, PreCopyMigrate(vm).bytes_moved);
}

TEST(ZombieMigration, HotPartCappedByLocalShare) {
  const auto vm = MakeVm(4 * kGiB, 3 * kGiB);  // WSS above the local share
  const auto est = ZombieMigrate(vm, 0.5, 8);
  EXPECT_EQ(est.bytes_moved, 2 * kGiB);  // capped at 50% of reserved
}

TEST(ZombieMigration, FasterThanPreCopyAcrossWssRange) {
  // Fig. 9: ZombieStack outperforms native migration, especially at low WSS.
  for (double wss_ratio : {0.2, 0.4, 0.6, 0.8}) {
    const Bytes reserved = 4 * kGiB;
    const auto vm = MakeVm(reserved, static_cast<Bytes>(wss_ratio * reserved));
    const auto native = PreCopyMigrate(vm);
    const auto zombie = ZombieMigrate(vm, 0.5, 16);
    EXPECT_LT(zombie.total_time, native.total_time) << "wss_ratio=" << wss_ratio;
  }
}

TEST(ZombieMigration, TimeGrowsWithWss) {
  const auto low = ZombieMigrate(MakeVm(4 * kGiB, 512 * kMiB), 0.5, 8);
  const auto high = ZombieMigrate(MakeVm(4 * kGiB, 2 * kGiB), 0.5, 8);
  EXPECT_GT(high.total_time, low.total_time);
}

TEST(ZombieMigration, OwnershipUpdatesScaleWithBuffers) {
  const auto vm = MakeVm(4 * kGiB, 1 * kGiB);
  const auto few = ZombieMigrate(vm, 0.5, 2);
  const auto many = ZombieMigrate(vm, 0.5, 64);
  EXPECT_GT(many.total_time, few.total_time);
  // But pointer updates stay far below data movement.
  EXPECT_LT(many.total_time - few.total_time, few.total_time);
}

TEST(ZombieMigration, ZeroLocalFractionMovesNothingButPointers) {
  const auto vm = MakeVm(1 * kGiB, 512 * kMiB);
  const auto est = ZombieMigrate(vm, 0.0, 4);
  EXPECT_EQ(est.bytes_moved, 0u);
  EXPECT_GT(est.total_time, 0);
}

}  // namespace
}  // namespace zombie::migration
