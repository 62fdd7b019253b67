#include "src/rdma/verbs.h"

#include <cstring>

namespace zombie::rdma {

Result<RKey> Verbs::RegisterRegion(NodeId owner, Bytes size, MrAccess access) {
  if (size == 0) {
    return Status(ErrorCode::kInvalidArgument, "cannot register empty region");
  }
  if (!fabric_->NodeMemoryAccessible(owner)) {
    return Status(ErrorCode::kUnavailable, "owner memory not accessible for registration");
  }
  const RKey rkey = next_rkey_++;
  regions_.emplace(rkey, std::make_unique<MemoryRegion>(rkey, owner, size, access));
  return rkey;
}

Status Verbs::DeregisterRegion(RKey rkey) {
  return regions_.erase(rkey) > 0
             ? Status::Ok()
             : Status(ErrorCode::kNotFound, "unknown rkey");
}

MemoryRegion* Verbs::FindRegion(RKey rkey) {
  auto it = regions_.find(rkey);
  return it == regions_.end() ? nullptr : it->second.get();
}

const MemoryRegion* Verbs::FindRegion(RKey rkey) const {
  auto it = regions_.find(rkey);
  return it == regions_.end() ? nullptr : it->second.get();
}

Result<Duration> Verbs::CheckOneSided(NodeId initiator, const MemoryRegion& mr, Bytes offset,
                                      Bytes len, bool is_write) const {
  if (offset + len > mr.size()) {
    return Status(ErrorCode::kInvalidArgument, "one-sided op out of region bounds");
  }
  if (is_write && !mr.access().remote_write) {
    return Status(ErrorCode::kFailedPrecondition, "region not remote-writable");
  }
  if (!is_write && !mr.access().remote_read) {
    return Status(ErrorCode::kFailedPrecondition, "region not remote-readable");
  }
  return fabric_->PriceOneSided(initiator, mr.owner(), len);
}

Result<Duration> Verbs::Read(NodeId initiator, RKey rkey, Bytes remote_offset,
                             std::span<std::byte> dst) {
  MemoryRegion* mr = FindRegion(rkey);
  if (mr == nullptr) {
    return Status(ErrorCode::kNotFound, "unknown rkey");
  }
  auto cost = CheckOneSided(initiator, *mr, remote_offset, dst.size(), /*is_write=*/false);
  if (!cost.ok()) {
    return cost;
  }
  if (mr->materialized()) {
    std::memcpy(dst.data(), mr->bytes().data() + remote_offset, dst.size());
  }
  fabric_->NoteTransfer(dst.size());
  return cost;
}

Result<Duration> Verbs::Write(NodeId initiator, RKey rkey, Bytes remote_offset,
                              std::span<const std::byte> src) {
  MemoryRegion* mr = FindRegion(rkey);
  if (mr == nullptr) {
    return Status(ErrorCode::kNotFound, "unknown rkey");
  }
  auto cost = CheckOneSided(initiator, *mr, remote_offset, src.size(), /*is_write=*/true);
  if (!cost.ok()) {
    return cost;
  }
  if (mr->materialized()) {
    std::memcpy(mr->bytes().data() + remote_offset, src.data(), src.size());
  }
  fabric_->NoteTransfer(src.size());
  return cost;
}

}  // namespace zombie::rdma
