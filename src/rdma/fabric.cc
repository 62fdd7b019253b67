#include "src/rdma/fabric.h"

namespace zombie::rdma {

namespace {
const std::string kUnknownNode = "<unknown>";
}  // namespace

NodeId Fabric::Attach(NodePort port) {
  const NodeId id = next_id_++;
  ports_.emplace(id, std::move(port));
  return id;
}

void Fabric::Detach(NodeId id) { ports_.erase(id); }

bool Fabric::NodeCanInitiate(NodeId id) const {
  auto it = ports_.find(id);
  return it != ports_.end() && it->second.can_initiate && it->second.can_initiate();
}

bool Fabric::NodeMemoryAccessible(NodeId id) const {
  auto it = ports_.find(id);
  return it != ports_.end() && it->second.memory_accessible && it->second.memory_accessible();
}

const std::string& Fabric::NodeName(NodeId id) const {
  auto it = ports_.find(id);
  return it == ports_.end() ? kUnknownNode : it->second.name;
}

void Fabric::SetLinkBroken(NodeId a, NodeId b, bool broken) {
  if (broken) {
    broken_links_.insert(LinkKey(a, b));
  } else {
    broken_links_.erase(LinkKey(a, b));
  }
}

bool Fabric::IsLinkBroken(NodeId a, NodeId b) const {
  return broken_links_.contains(LinkKey(a, b));
}

Status Fabric::CheckLink(NodeId initiator, NodeId target) const {
  if (IsLinkBroken(initiator, target)) {
    if (failure_upcall_) {
      failure_upcall_(initiator, target);
    }
    return Status(ErrorCode::kUnavailable,
                  "link " + NodeName(initiator) + " <-> " + NodeName(target) +
                      " is partitioned");
  }
  return Status::Ok();
}

Result<Duration> Fabric::PriceOneSided(NodeId initiator, NodeId target, Bytes bytes) const {
  if (!ports_.contains(initiator) || !ports_.contains(target)) {
    return Status(ErrorCode::kNotFound, "node not attached to fabric");
  }
  if (!NodeCanInitiate(initiator)) {
    return Status(ErrorCode::kFailedPrecondition,
                  "initiator " + NodeName(initiator) + " has no running CPU");
  }
  if (!NodeMemoryAccessible(target)) {
    return Status(ErrorCode::kUnavailable,
                  "target " + NodeName(target) + " memory is not powered/reachable");
  }
  ZOMBIE_RETURN_IF_ERROR(CheckLink(initiator, target));
  return OneSidedCost(bytes);
}

}  // namespace zombie::rdma
