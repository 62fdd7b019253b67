// Unit tests for the RDMA fabric simulator: fabric pricing, verbs semantics
// (including the zombie one-sided-access property), RPC over RDMA and its
// payload codec.
#include <gtest/gtest.h>

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

TEST_F(RdmaTest, TwoSidedNeedsBothCpus) {
  zombie_.cpu_on = false;
  EXPECT_FALSE(fabric_.PriceTwoSided(user_id_, zombie_id_, 128).ok());
  zombie_.cpu_on = true;
  EXPECT_TRUE(fabric_.PriceTwoSided(user_id_, zombie_id_, 128).ok());
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

TEST_F(RdmaTest, CompletionQueueRecordsOps) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 8192);
  ASSERT_TRUE(rkey.ok());
  CompletionQueue cq;
  std::vector<std::byte> buf(4096);
  ASSERT_TRUE(verbs_.Write(user_id_, rkey.value(), 0, buf, &cq, /*wr_id=*/77).ok());
  ASSERT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, buf, &cq, /*wr_id=*/78).ok());
  Completion entries[4];
  ASSERT_EQ(cq.Poll(entries), 2u);
  EXPECT_EQ(entries[0].op, Completion::Op::kWrite);
  EXPECT_EQ(entries[0].wr_id, 77u);
  EXPECT_EQ(entries[1].op, Completion::Op::kRead);
  EXPECT_EQ(entries[1].bytes, 4096u);
}

TEST_F(RdmaTest, SendRecvDeliversPayload) {
  std::vector<std::byte> msg{std::byte{1}, std::byte{2}, std::byte{3}};
  ASSERT_TRUE(verbs_.Send(user_id_, zombie_id_, msg).ok());
  EXPECT_TRUE(verbs_.HasPending(zombie_id_));
  auto got = verbs_.Recv(zombie_id_);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), msg);
  EXPECT_FALSE(verbs_.HasPending(zombie_id_));
  EXPECT_EQ(verbs_.Recv(zombie_id_).code(), ErrorCode::kNotFound);
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

// ---------------------------------------------------------------------------
// RPC over RDMA.
// ---------------------------------------------------------------------------

TEST_F(RdmaTest, RpcRoundTrip) {
  RpcServer server(&verbs_, zombie_id_);
  server.RegisterMethod("echo", [](const Payload& req, PayloadWriter& out) -> Status {
    out.PutRaw(req);
    return Status::Ok();
  });
  RpcRouter router(&verbs_);
  router.AddServer(&server);

  PayloadWriter w;
  w.PutU64(0xdeadbeef);
  w.PutString("hello");
  const Payload request = w.Take();

  RpcCost cost;
  auto response = router.Call(user_id_, zombie_id_, "echo", request, &cost);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(), request);
  EXPECT_GT(cost.client, 0);
  EXPECT_EQ(server.dispatched(), 1u);
}

TEST_F(RdmaTest, RpcToSuspendedServerFails) {
  RpcServer server(&verbs_, zombie_id_);
  server.RegisterMethod("noop", [](const Payload&, PayloadWriter&) { return Status::Ok(); });
  RpcRouter router(&verbs_);
  router.AddServer(&server);
  zombie_.cpu_on = false;  // the RPC daemon needs a CPU; one-sided does not
  auto response = router.Call(user_id_, zombie_id_, "noop", {});
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.code(), ErrorCode::kUnavailable);
}

TEST_F(RdmaTest, RpcUnknownMethod) {
  RpcServer server(&verbs_, zombie_id_);
  RpcRouter router(&verbs_);
  router.AddServer(&server);
  EXPECT_EQ(router.Call(user_id_, zombie_id_, "nope", {}).code(), ErrorCode::kNotFound);
}

TEST_F(RdmaTest, RpcNoServer) {
  RpcRouter router(&verbs_);
  EXPECT_EQ(router.Call(user_id_, zombie_id_, "x", {}).code(), ErrorCode::kUnavailable);
}

TEST_F(RdmaTest, RpcCallIntoReusesResponseBuffer) {
  RpcServer server(&verbs_, zombie_id_);
  server.RegisterMethod("echo", [](const Payload& req, PayloadWriter& out) -> Status {
    out.PutRaw(req);
    return Status::Ok();
  });
  RpcRouter router(&verbs_);
  router.AddServer(&server);

  Payload request;
  PayloadWriter w(&request);
  w.PutU64(7);
  Payload response;
  ASSERT_TRUE(router.CallInto(user_id_, zombie_id_, "echo", request, response).ok());
  EXPECT_EQ(response, request);
  const auto capacity = response.capacity();
  // A second same-sized call must not grow the client's poll slot: the
  // response bytes land in the existing storage (steady-state reuse).
  ASSERT_TRUE(router.CallInto(user_id_, zombie_id_, "echo", request, response).ok());
  EXPECT_EQ(response, request);
  EXPECT_EQ(response.capacity(), capacity);
  EXPECT_EQ(server.dispatched(), 2u);
}

TEST_F(RdmaTest, RpcResponseRingSlotsStayValidAcrossDispatches) {
  RpcServer server(&verbs_, zombie_id_);
  server.RegisterMethod("echo", [](const Payload& req, PayloadWriter& out) -> Status {
    out.PutRaw(req);
    return Status::Ok();
  });
  Payload first_request;
  PayloadWriter w(&first_request);
  w.PutU32(11);
  auto first = server.Dispatch("echo", first_request);
  ASSERT_TRUE(first.ok());
  const Payload* first_slot = first.value();
  // The next kRingSlots - 1 dispatches recycle *other* slots, so the first
  // response stays readable (the daemon's in-flight window).
  for (std::size_t i = 0; i + 1 < RpcServer::kRingSlots; ++i) {
    Payload request;
    PayloadWriter wr(&request);
    wr.PutU32(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(server.Dispatch("echo", request).ok());
  }
  EXPECT_EQ(*first_slot, first_request);
}

TEST(PayloadCodec, RoundTripsAllTypes) {
  PayloadWriter w;
  w.PutU64(~0ULL);
  w.PutU32(12345);
  w.PutString("zombieland");
  w.PutU64(0);
  const Payload p = w.Take();

  PayloadReader r(p);
  EXPECT_EQ(r.GetU64().value(), ~0ULL);
  EXPECT_EQ(r.GetU32().value(), 12345u);
  EXPECT_EQ(r.GetString().value(), "zombieland");
  EXPECT_EQ(r.GetU64().value(), 0u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(PayloadCodec, UnderrunDetected) {
  PayloadWriter w;
  w.PutU32(7);
  const Payload p = w.Take();
  PayloadReader r(p);
  EXPECT_FALSE(r.GetU64().ok());
  PayloadReader r2(p);
  // A string header larger than the remaining bytes must fail cleanly.
  EXPECT_FALSE(r2.GetString().ok());
}

// The payload encoding is the fabric's wire format; its boundary cases keep
// the WireCodec suite name they have always been reported under.
TEST(WireCodec, PrimitiveRoundTripsIncludingBoundaryValues) {
  PayloadWriter writer;
  writer.PutU64(0);
  writer.PutU64(~0ULL);
  writer.PutU64(0x0123456789ABCDEFULL);
  writer.PutU32(0);
  writer.PutU32(0xFFFFFFFFu);
  writer.PutString("");
  writer.PutString(std::string("nul\0inside", 10));
  const Payload payload = writer.Take();
  // 3*8 + 2*4 + (4+0) + (4+10) bytes of little-endian data.
  EXPECT_EQ(payload.size(), 24u + 8u + 4u + 14u);

  PayloadReader reader(payload);
  auto a = reader.GetU64();
  auto b = reader.GetU64();
  auto c = reader.GetU64();
  auto d = reader.GetU32();
  auto e = reader.GetU32();
  auto s1 = reader.GetString();
  auto s2 = reader.GetString();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), ~0ULL);
  EXPECT_EQ(c.value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(d.value(), 0u);
  EXPECT_EQ(e.value(), 0xFFFFFFFFu);
  EXPECT_EQ(s1.value(), "");
  EXPECT_EQ(s2.value(), std::string("nul\0inside", 10));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireCodec, PrimitiveUnderrunsRejected) {
  const Payload empty;
  {
    PayloadReader reader(empty);
    EXPECT_EQ(reader.GetU64().code(), ErrorCode::kInvalidArgument);
  }
  {
    PayloadReader reader(empty);
    EXPECT_EQ(reader.GetU32().code(), ErrorCode::kInvalidArgument);
  }
  {
    PayloadReader reader(empty);
    EXPECT_EQ(reader.GetString().code(), ErrorCode::kInvalidArgument);
  }
  // A string whose length prefix promises more bytes than remain.
  PayloadWriter writer;
  writer.PutU32(100);
  const Payload lying = writer.Take();
  PayloadReader reader(lying);
  EXPECT_EQ(reader.GetString().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace zombie::rdma
