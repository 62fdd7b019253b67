// Tests for the GS_* control protocol over RPC-over-RDMA (wire codec,
// endpoint dispatch, client stubs) and the surplus-zombie retirement policy.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rdma/rpc.h"
#include "src/rdma/verbs.h"
#include "src/remotemem/sharded_plane.h"
#include "src/remotemem/wire.h"

namespace zombie::remotemem {
namespace {

constexpr Bytes kBuff = 1 * kMiB;

std::vector<BufferGrant> MakeGrants(std::size_t n, ServerId host) {
  std::vector<BufferGrant> grants;
  for (std::size_t i = 0; i < n; ++i) {
    grants.push_back({kInvalidBuffer, 1000 + i, kBuff, host, BufferType::kZombie});
  }
  return grants;
}

PlaneConfig OneShard() {
  return PlaneConfig{.buff_size = kBuff, .shards = 1, .lease = {}, .secondary = {}};
}

// ---------------------------------------------------------------------------
// Codec round trips.
// ---------------------------------------------------------------------------

TEST(WireCodec, GrantRoundTrip) {
  BufferGrant grant{42, 777, kBuff, 9, BufferType::kActive};
  rdma::PayloadWriter writer;
  EncodeGrant(writer, grant);
  const rdma::Payload payload = writer.Take();
  rdma::PayloadReader reader(payload);
  auto decoded = DecodeGrant(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().id, 42u);
  EXPECT_EQ(decoded.value().rkey, 777u);
  EXPECT_EQ(decoded.value().size, kBuff);
  EXPECT_EQ(decoded.value().host, 9u);
  EXPECT_EQ(decoded.value().type, BufferType::kActive);
}

TEST(WireCodec, GrantTruncatedFails) {
  BufferGrant grant{1, 2, 3, 4, BufferType::kZombie};
  rdma::PayloadWriter writer;
  EncodeGrant(writer, grant);
  rdma::Payload payload = writer.Take();
  payload.resize(payload.size() - 3);
  rdma::PayloadReader reader(payload);
  EXPECT_FALSE(DecodeGrant(reader).ok());
}

TEST(WireCodec, StatusRoundTrip) {
  rdma::PayloadWriter writer;
  EncodeStatus(writer, Status(ErrorCode::kOutOfMemory, "pool dry"));
  const rdma::Payload payload = writer.Take();
  rdma::PayloadReader reader(payload);
  const Status status = DecodeStatus(reader);
  EXPECT_EQ(status.code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(status.message(), "pool dry");
}

TEST(WireCodec, BadStatusCodeRejected) {
  rdma::PayloadWriter writer;
  writer.PutU32(250);  // not a valid ErrorCode
  writer.PutString("");
  const rdma::Payload payload = writer.Take();
  rdma::PayloadReader reader(payload);
  EXPECT_EQ(DecodeStatus(reader).code(), ErrorCode::kInvalidArgument);
}

TEST(WireCodec, PrimitiveRoundTripsIncludingBoundaryValues) {
  rdma::PayloadWriter writer;
  writer.PutU64(0);
  writer.PutU64(~0ULL);
  writer.PutU64(0x0123456789ABCDEFULL);
  writer.PutU32(0);
  writer.PutU32(0xFFFFFFFFu);
  writer.PutString("");
  writer.PutString(std::string("nul\0inside", 10));
  const rdma::Payload payload = writer.Take();
  // 3*8 + 2*4 + (4+0) + (4+10) bytes of little-endian data.
  EXPECT_EQ(payload.size(), 24u + 8u + 4u + 14u);

  rdma::PayloadReader reader(payload);
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
  const rdma::Payload empty;
  {
    rdma::PayloadReader reader(empty);
    EXPECT_EQ(reader.GetU64().code(), ErrorCode::kInvalidArgument);
  }
  {
    rdma::PayloadReader reader(empty);
    EXPECT_EQ(reader.GetU32().code(), ErrorCode::kInvalidArgument);
  }
  {
    rdma::PayloadReader reader(empty);
    EXPECT_EQ(reader.GetString().code(), ErrorCode::kInvalidArgument);
  }
  // A string whose length prefix promises more bytes than remain.
  rdma::PayloadWriter writer;
  writer.PutU32(100);
  const rdma::Payload lying = writer.Take();
  rdma::PayloadReader reader(lying);
  EXPECT_EQ(reader.GetString().code(), ErrorCode::kInvalidArgument);
}

TEST(WireCodec, GrantTruncationRejectedAtEveryPrefix) {
  BufferGrant grant{42, 777, kBuff, 9, BufferType::kActive};
  rdma::PayloadWriter writer;
  EncodeGrant(writer, grant);
  const rdma::Payload full = writer.Take();
  for (std::size_t len = 0; len < full.size(); ++len) {
    rdma::Payload truncated(full.begin(), full.begin() + static_cast<long>(len));
    rdma::PayloadReader reader(truncated);
    EXPECT_FALSE(DecodeGrant(reader).ok()) << "prefix of " << len << " bytes";
  }
}

TEST(WireCodec, GrantStreamRoundTrip) {
  const std::vector<BufferGrant> grants = {
      {1, 10, kBuff, 3, BufferType::kZombie},
      {2, 20, 2 * kBuff, 4, BufferType::kActive},
      {kInvalidBuffer, rdma::kInvalidRKey, 0, kNilServer, BufferType::kZombie},
  };
  rdma::PayloadWriter writer;
  for (const auto& grant : grants) {
    EncodeGrant(writer, grant);
  }
  const rdma::Payload payload = writer.Take();
  rdma::PayloadReader reader(payload);
  for (const auto& expected : grants) {
    auto decoded = DecodeGrant(reader);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().id, expected.id);
    EXPECT_EQ(decoded.value().rkey, expected.rkey);
    EXPECT_EQ(decoded.value().size, expected.size);
    EXPECT_EQ(decoded.value().host, expected.host);
    EXPECT_EQ(decoded.value().type, expected.type);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireCodec, BadBufferTypeRejected) {
  rdma::PayloadWriter writer;
  writer.PutU64(1);   // id
  writer.PutU64(2);   // rkey
  writer.PutU64(3);   // size
  writer.PutU32(4);   // host
  writer.PutU32(7);   // not a valid BufferType
  const rdma::Payload payload = writer.Take();
  rdma::PayloadReader reader(payload);
  EXPECT_EQ(DecodeGrant(reader).code(), ErrorCode::kInvalidArgument);
}

TEST(WireCodec, StatusEmptyMessageRoundTrip) {
  rdma::PayloadWriter writer;
  EncodeStatus(writer, Status::Ok());
  const rdma::Payload payload = writer.Take();
  rdma::PayloadReader reader(payload);
  const Status status = DecodeStatus(reader);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.message(), "");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireCodec, StatusTruncatedFails) {
  rdma::PayloadWriter writer;
  EncodeStatus(writer, Status(ErrorCode::kOutOfMemory, "pool dry"));
  rdma::Payload payload = writer.Take();
  payload.resize(payload.size() - 4);  // chop into the message bytes
  rdma::PayloadReader reader(payload);
  EXPECT_EQ(DecodeStatus(reader).code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Full client/endpoint stack over the fabric.
// ---------------------------------------------------------------------------

class WireTest : public ::testing::Test {
 protected:
  WireTest() : verbs_(&fabric_), router_(&verbs_), plane_(OneShard()) {
    ctr_node_ = Attach("ctr");
    agent_node_ = Attach("agent");
    server_ = std::make_unique<rdma::RpcServer>(&verbs_, ctr_node_);
    endpoint_ = std::make_unique<ControllerEndpoint>(&plane_, server_.get());
    router_.AddServer(server_.get());
    client_ = std::make_unique<ControllerClient>(&router_, agent_node_, ctr_node_);
    plane_.RegisterServer(kHost);
    plane_.RegisterServer(kUser);
  }

  rdma::NodeId Attach(std::string name) {
    rdma::NodePort port;
    port.name = std::move(name);
    port.can_initiate = [] { return true; };
    port.memory_accessible = [] { return true; };
    return fabric_.Attach(std::move(port));
  }

  static constexpr ServerId kHost = 1;
  static constexpr ServerId kUser = 2;
  rdma::Fabric fabric_;
  rdma::Verbs verbs_;
  rdma::RpcRouter router_;
  ShardedControlPlane plane_;
  rdma::NodeId ctr_node_ = rdma::kInvalidNode;
  rdma::NodeId agent_node_ = rdma::kInvalidNode;
  std::unique_ptr<rdma::RpcServer> server_;
  std::unique_ptr<ControllerEndpoint> endpoint_;
  std::unique_ptr<ControllerClient> client_;
};

TEST_F(WireTest, GotoZombieOverFabric) {
  auto ids = client_->GotoZombie(kHost, MakeGrants(3, kHost));
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(ids.value().size(), 3u);
  EXPECT_TRUE(plane_.IsZombie(kHost));
  EXPECT_EQ(plane_.FreeRemoteBytes(), 3 * kBuff);
  EXPECT_GT(client_->last_cost().client, 0);
}

TEST_F(WireTest, AllocAndReleaseOverFabric) {
  ASSERT_TRUE(client_->GotoZombie(kHost, MakeGrants(3, kHost)).ok());
  auto grants = client_->AllocExt(kUser, 2 * kBuff);
  ASSERT_TRUE(grants.ok());
  ASSERT_EQ(grants.value().size(), 2u);
  EXPECT_EQ(grants.value()[0].host, kHost);
  EXPECT_EQ(grants.value()[0].type, BufferType::kZombie);
  ASSERT_TRUE(client_->Release(kUser, {grants.value()[0].id}).ok());
  EXPECT_EQ(plane_.FreeRemoteBytes(), 2 * kBuff);
}

TEST_F(WireTest, AllocSwapBestEffortOverFabric) {
  ASSERT_TRUE(client_->GotoZombie(kHost, MakeGrants(1, kHost)).ok());
  auto grants = client_->AllocSwap(kUser, 10 * kBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(grants.value().size(), 1u);
}

TEST_F(WireTest, ErrorsTravelTheWire) {
  // Guaranteed allocation with an empty pool: the controller's OOM status
  // must surface through the RPC layer intact.
  auto grants = client_->AllocExt(kUser, kBuff);
  ASSERT_FALSE(grants.ok());
  EXPECT_EQ(grants.code(), ErrorCode::kOutOfMemory);
}

TEST_F(WireTest, ReclaimOverFabric) {
  ASSERT_TRUE(client_->GotoZombie(kHost, MakeGrants(2, kHost)).ok());
  auto reclaimed = client_->Reclaim(kHost, 2);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed.value().size(), 2u);
  EXPECT_FALSE(plane_.IsZombie(kHost));
  EXPECT_EQ(plane_.FreeRemoteBytes(), 0u);
}

TEST_F(WireTest, LruZombieOverFabric) {
  EXPECT_EQ(client_->GetLruZombie().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(client_->GotoZombie(kHost, MakeGrants(1, kHost)).ok());
  auto lru = client_->GetLruZombie();
  ASSERT_TRUE(lru.ok());
  EXPECT_EQ(lru.value(), kHost);
}

// ---------------------------------------------------------------------------
// Surplus-zombie retirement (Section 4.4 deep sleep).
// ---------------------------------------------------------------------------

TEST(SurplusZombies, OnlyFullyFreeZombiesBeyondSlack) {
  ShardedControlPlane plane(OneShard());
  for (ServerId s : {1u, 2u, 3u}) {
    plane.RegisterServer(s);
  }
  ASSERT_TRUE(plane.GsGotoZombie(1, MakeGrants(4, 1)).ok());
  ASSERT_TRUE(plane.GsGotoZombie(2, MakeGrants(4, 2)).ok());
  // Host 1 serves an allocation; host 2 is fully free.
  ASSERT_TRUE(plane.GsAllocExt(3, kBuff).ok());

  // Keeping >= 4 buffers of slack allows retiring host 2 only.
  const auto surplus = plane.SurplusZombies(3 * kBuff);
  ASSERT_EQ(surplus.size(), 1u);
  EXPECT_EQ(surplus[0], 2u);
  // Requiring more slack than remains forbids retirement.
  EXPECT_TRUE(plane.SurplusZombies(5 * kBuff).empty());
}

TEST(SurplusZombies, RetireRemovesBuffers) {
  ShardedControlPlane plane(OneShard());
  plane.RegisterServer(1);
  plane.RegisterServer(2);
  ASSERT_TRUE(plane.GsGotoZombie(1, MakeGrants(2, 1)).ok());
  ASSERT_TRUE(plane.RetireZombie(1).ok());
  EXPECT_EQ(plane.FreeRemoteBytes(), 0u);
  // Retiring a non-zombie or a serving zombie fails.
  EXPECT_EQ(plane.RetireZombie(2).code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(plane.GsGotoZombie(2, MakeGrants(1, 2)).ok());
  ASSERT_TRUE(plane.GsAllocExt(1, kBuff).ok());
  EXPECT_EQ(plane.RetireZombie(2).code(), ErrorCode::kConflict);
}

}  // namespace
}  // namespace zombie::remotemem
