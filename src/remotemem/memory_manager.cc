#include "src/remotemem/memory_manager.h"

#include <algorithm>
#include <memory>

namespace zombie::remotemem {

RemoteExtent::RemoteExtent(rdma::Verbs* verbs, rdma::NodeId local_node, Bytes buff_size)
    : verbs_(verbs), local_node_(local_node), buff_size_(buff_size) {}

void RemoteExtent::AddGrants(const std::vector<BufferGrant>& grants) {
  for (const auto& g : grants) {
    buffers_.push_back({g, /*reclaimed=*/false});
  }
}

std::vector<BufferId> RemoteExtent::buffer_ids() const {
  std::vector<BufferId> ids;
  ids.reserve(buffers_.size());
  for (const auto& slot : buffers_) {
    ids.push_back(slot.grant.id);
  }
  return ids;
}

RemoteExtent::Location RemoteExtent::Locate(std::uint64_t page_index) const {
  const std::uint64_t pages_per_buffer = PagesOf(buff_size_);
  return Location{static_cast<std::size_t>(page_index / pages_per_buffer),
                  PagesToBytes(page_index % pages_per_buffer)};
}

Result<Duration> RemoteExtent::WritePage(std::uint64_t page_index,
                                         std::span<const std::byte> data) {
  if (page_index >= capacity_pages()) {
    return Status(ErrorCode::kInvalidArgument, "page index beyond extent capacity");
  }
  const Location loc = Locate(page_index);
  Slot& slot = buffers_[loc.slot];
  // The asynchronous local mirror always records the page (footnote 3).
  mirrored_pages_.insert(page_index);
  if (slot.reclaimed) {
    // Remote home gone: the page lives only in the mirror until re-homing.
    mirror_only_pages_.insert(page_index);
    return kMirrorWriteLatency;  // degraded, synchronous local write
  }
  auto cost = verbs_->Write(local_node_, slot.grant.rkey, loc.offset,
                            data.empty() ? std::span<const std::byte>() : data);
  if (!cost.ok()) {
    return cost;
  }
  ++remote_writes_;
  mirror_only_pages_.erase(page_index);
  return cost;
}

Result<Duration> RemoteExtent::ReadPage(std::uint64_t page_index, std::span<std::byte> out) {
  if (page_index >= capacity_pages()) {
    return Status(ErrorCode::kInvalidArgument, "page index beyond extent capacity");
  }
  const Location loc = Locate(page_index);
  const Slot& slot = buffers_[loc.slot];
  if (slot.reclaimed || mirror_only_pages_.contains(page_index)) {
    if (!mirrored_pages_.contains(page_index)) {
      return Status(ErrorCode::kNotFound, "page lost: buffer reclaimed before first write");
    }
    ++mirror_reads_;
    return kMirrorReadLatency;  // the paper's slower local-storage path
  }
  auto cost = verbs_->Read(local_node_, slot.grant.rkey, loc.offset, out);
  if (!cost.ok()) {
    return cost;
  }
  ++remote_reads_;
  return cost;
}

std::size_t RemoteExtent::OnBuffersReclaimed(const std::vector<BufferId>& reclaimed) {
  std::size_t affected = 0;
  const std::uint64_t pages_per_buffer = PagesOf(buff_size_);
  std::vector<BufferId> sorted(reclaimed);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t s = 0; s < buffers_.size(); ++s) {
    Slot& slot = buffers_[s];
    if (!std::binary_search(sorted.begin(), sorted.end(), slot.grant.id)) {
      continue;
    }
    slot.reclaimed = true;
    if (mirrored_pages_.empty()) {
      continue;
    }
    // Every mirrored page homed in this buffer becomes mirror-only.
    const std::uint64_t first = static_cast<std::uint64_t>(s) * pages_per_buffer;
    for (std::uint64_t p = first; p < first + pages_per_buffer; ++p) {
      if (mirrored_pages_.contains(p)) {
        mirror_only_pages_.insert(p);
        ++affected;
      }
    }
  }
  return affected;
}

RemoteMemoryManager::RemoteMemoryManager(ServerId server, rdma::Verbs* verbs, rdma::NodeId node,
                                         ShardedControlPlane* plane)
    : server_(server), verbs_(verbs), node_(node), plane_(plane) {}

Result<std::size_t> RemoteMemoryManager::Delegate(Bytes free_bytes, bool materialize,
                                                  bool zombie) {
  const Bytes buff_size = plane_->buff_size();
  const std::size_t nb = static_cast<std::size_t>(free_bytes / buff_size);
  if (nb == 0) {
    return Status(ErrorCode::kInvalidArgument, "free memory below one BUFF_SIZE");
  }
  std::vector<BufferGrant> grants;
  grants.reserve(nb);
  std::vector<rdma::RKey> rkeys;
  for (std::size_t i = 0; i < nb; ++i) {
    rdma::MrAccess access;
    access.materialize = materialize;
    auto rkey = verbs_->RegisterRegion(node_, buff_size, access);
    if (!rkey.ok()) {
      for (rdma::RKey k : rkeys) {
        (void)verbs_->DeregisterRegion(k);
      }
      return rkey.status();
    }
    rkeys.push_back(rkey.value());
    grants.push_back({kInvalidBuffer, rkey.value(), buff_size, server_, BufferType::kZombie});
  }
  auto ids = zombie ? plane_->GsGotoZombie(server_, grants)
                    : plane_->DelegateActiveBuffers(server_, grants);
  if (!ids.ok()) {
    for (rdma::RKey k : rkeys) {
      (void)verbs_->DeregisterRegion(k);
    }
    return ids.status();
  }
  for (std::size_t i = 0; i < ids.value().size(); ++i) {
    delegated_.push_back(ids.value()[i]);
    delegated_rkeys_[ids.value()[i]] = rkeys[i];
  }
  return ids.value().size();
}

Result<std::size_t> RemoteMemoryManager::DelegateOnZombie(Bytes free_bytes, bool materialize) {
  return Delegate(free_bytes, materialize, /*zombie=*/true);
}

Result<std::size_t> RemoteMemoryManager::DelegateActive(Bytes free_bytes, bool materialize) {
  return Delegate(free_bytes, materialize, /*zombie=*/false);
}

Result<std::size_t> RemoteMemoryManager::ReclaimOnWake(Bytes bytes) {
  const Bytes buff_size = plane_->buff_size();
  const std::size_t nb = std::min<std::size_t>(
      static_cast<std::size_t>((bytes + buff_size - 1) / buff_size), delegated_.size());
  if (nb == 0) {
    return static_cast<std::size_t>(0);
  }
  auto reclaimed = plane_->GsReclaim(server_, nb);
  if (!reclaimed.ok()) {
    return reclaimed.status();
  }
  // "Once in possession of these buffers, the remote-mem-mgr of the server
  // destroys the communication channels to these buffers and frees them."
  for (BufferId id : reclaimed.value()) {
    auto it = delegated_rkeys_.find(id);
    if (it != delegated_rkeys_.end()) {
      (void)verbs_->DeregisterRegion(it->second);
      delegated_rkeys_.erase(it);
    }
    delegated_.erase(std::remove(delegated_.begin(), delegated_.end(), id), delegated_.end());
  }
  return reclaimed.value().size();
}

void RemoteMemoryManager::ForgetDelegations() {
  for (const auto& [id, rkey] : delegated_rkeys_) {
    (void)verbs_->DeregisterRegion(rkey);
  }
  delegated_rkeys_.clear();
  delegated_.clear();
}

Result<RemoteExtent*> RemoteMemoryManager::AllocExtension(Bytes size) {
  auto grants = plane_->GsAllocExt(server_, size);
  if (!grants.ok()) {
    return grants.status();
  }
  auto extent = std::make_unique<RemoteExtent>(verbs_, node_, plane_->buff_size());
  extent->AddGrants(grants.value());
  extents_.push_back(std::move(extent));
  return extents_.back().get();
}

Status RemoteMemoryManager::ReleaseExtent(RemoteExtent* extent) {
  auto it = std::find_if(extents_.begin(), extents_.end(),
                         [extent](const auto& e) { return e.get() == extent; });
  if (it == extents_.end()) {
    return Status(ErrorCode::kNotFound, "extent not owned by this manager");
  }
  Status st = plane_->GsRelease(server_, extent->buffer_ids());
  extents_.erase(it);
  return st;
}

void RemoteMemoryManager::OnReclaimNotice(const std::vector<BufferId>& buffers) {
  for (auto& extent : extents_) {
    extent->OnBuffersReclaimed(buffers);
  }
}

}  // namespace zombie::remotemem
