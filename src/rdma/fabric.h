// Simulated Infiniband fabric (Mellanox SB7800-class switch, ConnectX-3
// class adapters).
//
// The fabric connects nodes and prices every operation with a deterministic
// latency/bandwidth model.  The property the whole paper rests on is
// enforced here: a *target* node serves one-sided RDMA as long as its memory
// and NIC path are powered (S0 or Sz); an *initiator* needs a running CPU
// (S0 only).
#ifndef ZOMBIELAND_SRC_RDMA_FABRIC_H_
#define ZOMBIELAND_SRC_RDMA_FABRIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/common/result.h"
#include "src/common/units.h"

namespace zombie::rdma {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0;

// Per-fabric timing parameters.  Defaults approximate FDR Infiniband with
// ConnectX-3 adapters: ~1.2 us one-sided 4KiB read end-to-end, ~5.5 GB/s
// per-link payload bandwidth.
struct FabricParams {
  Duration base_latency = 900;            // ns: NIC + switch + propagation
  double bandwidth_bytes_per_ns = 5.5;    // ~5.5 GB/s
  Duration initiator_post_cost = 250;     // ns: posting a WQE (outbound op)
  Duration completion_poll_cost = 120;    // ns: polling a CQE (inbound read)

  // Transfer time of `bytes` on one link, excluding base latency.
  Duration SerializationDelay(Bytes bytes) const {
    return static_cast<Duration>(static_cast<double>(bytes) / bandwidth_bytes_per_ns);
  }
  // End-to-end one-sided operation cost.
  Duration OneSidedCost(Bytes bytes) const {
    return initiator_post_cost + base_latency + SerializationDelay(bytes) +
           completion_poll_cost;
  }
};

// What the fabric needs to know about an attached node.  The rack layer
// implements this on top of acpi::Machine.
struct NodePort {
  // CPU running: may initiate verbs (post WQEs).
  std::function<bool()> can_initiate;
  // DRAM + NIC + PCIe path powered: may be the target of one-sided ops.
  std::function<bool()> memory_accessible;
  std::string name;
};

class Fabric {
 public:
  explicit Fabric(FabricParams params = {}) : params_(params) {}

  const FabricParams& params() const { return params_; }

  // Attaches a node; returns its fabric-assigned id.
  NodeId Attach(NodePort port);
  void Detach(NodeId id);

  bool NodeCanInitiate(NodeId id) const;
  bool NodeMemoryAccessible(NodeId id) const;
  const std::string& NodeName(NodeId id) const;

  // Validates an initiator->target one-sided operation and returns its cost.
  [[nodiscard]] Result<Duration> PriceOneSided(NodeId initiator, NodeId target, Bytes bytes) const;

  // ---- Link failures (derecho-style is_broken + failure upcall) ----------
  // Marks the a<->b link as partitioned (or heals it).  A broken link fails
  // every operation between the two nodes in both directions; the rest of
  // the fabric is untouched.
  void SetLinkBroken(NodeId a, NodeId b, bool broken);
  bool IsLinkBroken(NodeId a, NodeId b) const;
  // Invoked (initiator, target) whenever an operation is attempted over a
  // broken link — the connection-failure notification a real transport
  // would deliver to the membership layer.
  void set_failure_upcall(std::function<void(NodeId, NodeId)> upcall) {
    failure_upcall_ = std::move(upcall);
  }

  // Fabric-wide transfer counters (diagnostics / bench reporting).
  std::uint64_t total_operations() const { return total_ops_; }
  Bytes total_bytes() const { return total_bytes_; }
  void NoteTransfer(Bytes bytes) {
    ++total_ops_;
    total_bytes_ += bytes;
  }
  void ResetCounters() {
    total_ops_ = 0;
    total_bytes_ = 0;
  }

 private:
  // Order-independent key for an undirected link.
  static std::uint64_t LinkKey(NodeId a, NodeId b) {
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
  }
  // Returns an error (and fires the failure upcall) if the link is broken.
  [[nodiscard]] Status CheckLink(NodeId initiator, NodeId target) const;

  FabricParams params_;
  std::unordered_map<NodeId, NodePort> ports_;
  std::unordered_set<std::uint64_t> broken_links_;
  std::function<void(NodeId, NodeId)> failure_upcall_;
  NodeId next_id_ = 1;
  std::uint64_t total_ops_ = 0;
  Bytes total_bytes_ = 0;
};

}  // namespace zombie::rdma

#endif  // ZOMBIELAND_SRC_RDMA_FABRIC_H_
