// The GS_* control protocol over RPC-over-RDMA (Section 4.1).
//
// "All servers execute a Remote Memory Manager agent, which interacts with
// the global-mem-ctr to request and release remote memory.  The
// communication framework implements RPC over RDMA."
//
// ControllerEndpoint exposes the control plane's GS_* calls as RPC methods
// on the fabric; ControllerClient is the agent-side stub.  The primary /
// secondary heartbeat is not a wire method: it runs in-process through
// ShardedControlPlane::PumpHeartbeats.  Payloads use the
// length-prefixed little-endian codec from src/rdma/rpc.h.
#ifndef ZOMBIELAND_SRC_REMOTEMEM_WIRE_H_
#define ZOMBIELAND_SRC_REMOTEMEM_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/rdma/rpc.h"
#include "src/remotemem/sharded_plane.h"
#include "src/remotemem/types.h"

namespace zombie::remotemem {

// Method names of the control protocol.
inline constexpr char kMethodGotoZombie[] = "GS_goto_zombie";
inline constexpr char kMethodReclaim[] = "GS_reclaim";
inline constexpr char kMethodAllocExt[] = "GS_alloc_ext";
inline constexpr char kMethodAllocSwap[] = "GS_alloc_swap";
inline constexpr char kMethodRelease[] = "GS_release";
inline constexpr char kMethodGetLruZombie[] = "GS_get_lru_zombie";

// ---- Codec helpers (exposed for tests) ------------------------------------
void EncodeGrant(rdma::PayloadWriter& writer, const BufferGrant& grant);
[[nodiscard]] Result<BufferGrant> DecodeGrant(rdma::PayloadReader& reader);
// Status wire form: u32 code then message.  Decoding a malformed payload
// yields kInvalidArgument.
void EncodeStatus(rdma::PayloadWriter& writer, const Status& status);
[[nodiscard]] Status DecodeStatus(rdma::PayloadReader& reader);

// ---- Server side -----------------------------------------------------------
// Registers the GS_* methods on `server`, dispatching into `plane`.
class ControllerEndpoint {
 public:
  ControllerEndpoint(ShardedControlPlane* plane, rdma::RpcServer* server);

 private:
  ShardedControlPlane* plane_;
};

// ---- Client side -----------------------------------------------------------
// The remote-mem-mgr's stub for talking to the controller over the fabric.
// Every call returns the controller's answer plus the simulated RPC cost in
// `last_cost()` (clients poll for results; inbound ops are cheap).
class ControllerClient {
 public:
  ControllerClient(rdma::RpcRouter* router, rdma::NodeId self, rdma::NodeId controller_node)
      : router_(router), self_(self), controller_node_(controller_node) {}

  [[nodiscard]] Result<std::vector<BufferId>> GotoZombie(ServerId host,
                                           const std::vector<BufferGrant>& buffers);
  [[nodiscard]] Result<std::vector<BufferId>> Reclaim(ServerId host, std::uint64_t nb_buffers);
  [[nodiscard]] Result<std::vector<BufferGrant>> AllocExt(ServerId user, Bytes mem_size);
  [[nodiscard]] Result<std::vector<BufferGrant>> AllocSwap(ServerId user, Bytes mem_size);
  [[nodiscard]] Status Release(ServerId user, const std::vector<BufferId>& buffers);
  [[nodiscard]] Result<ServerId> GetLruZombie();

  const rdma::RpcCost& last_cost() const { return last_cost_; }

 private:
  // Sends request_buf_ and fills response_buf_; both buffers (the client's
  // registered request/poll slots) keep their capacity across calls, so the
  // stub allocates nothing in steady state.
  [[nodiscard]] Status Call(const std::string& method);

  rdma::RpcRouter* router_;
  rdma::NodeId self_;
  rdma::NodeId controller_node_;
  rdma::RpcCost last_cost_{};
  rdma::Payload request_buf_;
  rdma::PayloadWriter request_writer_{&request_buf_};
  rdma::Payload response_buf_;
};

}  // namespace zombie::remotemem

#endif  // ZOMBIELAND_SRC_REMOTEMEM_WIRE_H_
