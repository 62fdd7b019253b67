// Unit tests for the RDMA fabric simulator: fabric pricing, verbs semantics
// (including the zombie one-sided-access property) and the ring-slot
// payload encoding.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rdma/rpc.h"
#include "src/rdma/verbs.h"

namespace zombie::rdma {
namespace {

// A controllable fake node.
struct FakeNode {
  bool cpu_on = true;
  bool memory_on = true;
};

class RdmaTest : public ::testing::Test {
 protected:
  RdmaTest() : verbs_(&fabric_) {
    user_id_ = Attach(&user_, "user");
    zombie_id_ = Attach(&zombie_, "zombie");
  }

  NodeId Attach(FakeNode* node, std::string name) {
    NodePort port;
    port.name = std::move(name);
    port.can_initiate = [node] { return node->cpu_on; };
    port.memory_accessible = [node] { return node->memory_on; };
    return fabric_.Attach(std::move(port));
  }

  Fabric fabric_;
  Verbs verbs_;
  FakeNode user_;
  FakeNode zombie_;
  NodeId user_id_ = kInvalidNode;
  NodeId zombie_id_ = kInvalidNode;
};

// ---------------------------------------------------------------------------
// Fabric pricing.
// ---------------------------------------------------------------------------

TEST_F(RdmaTest, OneSidedCostGrowsWithSize) {
  auto small = fabric_.PriceOneSided(user_id_, zombie_id_, 64);
  auto page = fabric_.PriceOneSided(user_id_, zombie_id_, 4096);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(page.ok());
  EXPECT_GT(page.value(), small.value());
  // A 4 KiB one-sided op lands in the low microseconds (FDR-class fabric).
  EXPECT_GT(page.value(), 1 * kMicrosecond);
  EXPECT_LT(page.value(), 10 * kMicrosecond);
}

TEST_F(RdmaTest, ZombieTargetServesOneSided) {
  zombie_.cpu_on = false;  // CPU dead, memory alive: the Sz condition
  auto cost = fabric_.PriceOneSided(user_id_, zombie_id_, 4096);
  EXPECT_TRUE(cost.ok());
}

TEST_F(RdmaTest, ZombieCannotInitiate) {
  zombie_.cpu_on = false;
  auto cost = fabric_.PriceOneSided(zombie_id_, user_id_, 4096);
  EXPECT_FALSE(cost.ok());
  EXPECT_EQ(cost.code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RdmaTest, UnpoweredMemoryUnavailable) {
  zombie_.cpu_on = false;
  zombie_.memory_on = false;  // S3, not Sz
  auto cost = fabric_.PriceOneSided(user_id_, zombie_id_, 4096);
  EXPECT_FALSE(cost.ok());
  EXPECT_EQ(cost.code(), ErrorCode::kUnavailable);
}

TEST_F(RdmaTest, DetachedNodeNotFound) {
  fabric_.Detach(zombie_id_);
  EXPECT_EQ(fabric_.PriceOneSided(user_id_, zombie_id_, 64).code(), ErrorCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Verbs: registration + one-sided data movement.
// ---------------------------------------------------------------------------

TEST_F(RdmaTest, WriteThenReadMovesRealBytes) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 64 * 1024);
  ASSERT_TRUE(rkey.ok());

  std::vector<std::byte> out(4096);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(i & 0xff);
  }
  ASSERT_TRUE(verbs_.Write(user_id_, rkey.value(), 8192, out).ok());

  std::vector<std::byte> in(4096);
  ASSERT_TRUE(verbs_.Read(user_id_, rkey.value(), 8192, in).ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), out.size()), 0);
}

TEST_F(RdmaTest, WriteToZombieNodeSucceedsWithCpuOff) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 16 * 1024);
  ASSERT_TRUE(rkey.ok());
  zombie_.cpu_on = false;  // push the host into Sz after registration
  std::vector<std::byte> page(4096, std::byte{0xAB});
  EXPECT_TRUE(verbs_.Write(user_id_, rkey.value(), 0, page).ok());
  std::vector<std::byte> readback(4096);
  EXPECT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, readback).ok());
  EXPECT_EQ(readback[123], std::byte{0xAB});
}

TEST_F(RdmaTest, OutOfBoundsRejected) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 4096);
  ASSERT_TRUE(rkey.ok());
  std::vector<std::byte> buf(4096);
  EXPECT_EQ(verbs_.Read(user_id_, rkey.value(), 1, buf).code(), ErrorCode::kInvalidArgument);
}

TEST_F(RdmaTest, UnknownRkeyRejected) {
  std::vector<std::byte> buf(64);
  EXPECT_EQ(verbs_.Read(user_id_, 999, 0, buf).code(), ErrorCode::kNotFound);
}

TEST_F(RdmaTest, AccessFlagsEnforced) {
  MrAccess read_only;
  read_only.remote_write = false;
  auto rkey = verbs_.RegisterRegion(zombie_id_, 4096, read_only);
  ASSERT_TRUE(rkey.ok());
  std::vector<std::byte> buf(64);
  EXPECT_EQ(verbs_.Write(user_id_, rkey.value(), 0, buf).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, buf).ok());
}

TEST_F(RdmaTest, UnmaterializedRegionPricesWithoutData) {
  MrAccess acc;
  acc.materialize = false;
  auto rkey = verbs_.RegisterRegion(zombie_id_, 1ULL << 34 /* 16 GiB, no alloc */, acc);
  ASSERT_TRUE(rkey.ok());
  std::vector<std::byte> buf(4096);
  auto cost = verbs_.Write(user_id_, rkey.value(), 1ULL << 33, buf);
  EXPECT_TRUE(cost.ok());
  EXPECT_GT(cost.value(), 0);
}

TEST_F(RdmaTest, DeregisterInvalidatesRkey) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 4096);
  ASSERT_TRUE(rkey.ok());
  EXPECT_TRUE(verbs_.DeregisterRegion(rkey.value()).ok());
  std::vector<std::byte> buf(64);
  EXPECT_EQ(verbs_.Read(user_id_, rkey.value(), 0, buf).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(verbs_.DeregisterRegion(rkey.value()).ok());
}

TEST_F(RdmaTest, FabricCountsTraffic) {
  fabric_.ResetCounters();
  auto rkey = verbs_.RegisterRegion(zombie_id_, 8192);
  std::vector<std::byte> buf(4096);
  ASSERT_TRUE(verbs_.Write(user_id_, rkey.value(), 0, buf).ok());
  ASSERT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, buf).ok());
  EXPECT_EQ(fabric_.total_operations(), 2u);
  EXPECT_EQ(fabric_.total_bytes(), 8192u);
}

// The payload encoding is the fabric's wire format; its boundary cases keep
// the WireCodec suite name they have always been reported under.
TEST(WireCodec, PrimitiveRoundTripsIncludingBoundaryValues) {
  Payload payload;
  PayloadWriter writer(&payload);
  writer.PutU64(0);
  writer.PutU64(~0ULL);
  writer.PutU64(0x0123456789ABCDEFULL);
  writer.PutU32(0);
  writer.PutU32(0xFFFFFFFFu);
  // Each value lands least significant byte first.
  const std::vector<unsigned> expected = {
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // u64 0
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // u64 ~0
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64 0x0123456789ABCDEF
      0x00, 0x00, 0x00, 0x00,                          // u32 0
      0xFF, 0xFF, 0xFF, 0xFF,                          // u32 0xFFFFFFFF
  };
  ASSERT_EQ(payload.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::to_integer<unsigned>(payload[i]), expected[i]) << "byte " << i;
  }

  // Reset empties the slot but keeps its capacity for the next request.
  const auto capacity = payload.capacity();
  writer.Reset();
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(payload.capacity(), capacity);
}

}  // namespace
}  // namespace zombie::rdma
