#include "src/remotemem/buffer_db.h"

#include <algorithm>
#include <functional>

namespace zombie::remotemem {

std::string_view BufferTypeName(BufferType t) {
  return t == BufferType::kZombie ? "zombie" : "active";
}

namespace {

bool IdLess(const BufferRecord& record, BufferId id) { return record.id < id; }

constexpr std::size_t kNoOrdinal = SIZE_MAX;

}  // namespace

BufferDb::BufferDb(BufferId id_base, BufferId id_stride)
    : id_base_(id_base), id_stride_(id_stride == 0 ? 1 : id_stride) {}

std::size_t BufferDb::OrdinalOf(BufferId id) const {
  if (id < id_base_) {
    return kNoOrdinal;
  }
  const BufferId delta = id - id_base_;
  const BufferId ordinal = id_stride_ == 1 ? delta : delta / id_stride_;
  if (ordinal * id_stride_ != delta || ordinal >= kNoOrdinal) {
    return kNoOrdinal;
  }
  return static_cast<std::size_t>(ordinal);
}

std::optional<std::size_t> BufferDb::PositionOf(BufferId id) const {
  const std::size_t ordinal = OrdinalOf(id);
  if (ordinal < slot_.size()) {
    const std::uint32_t pos = slot_[ordinal];
    if (pos == kNoRecord) {
      return std::nullopt;
    }
    return pos;
  }
  // Outside the table: the sorted records are the index.
  auto found = std::lower_bound(records_.begin(), records_.end(), id, IdLess);
  if (found == records_.end() || found->id != id) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(found - records_.begin());
}

void BufferDb::CoverOrdinal(std::size_t ordinal) {
  if (ordinal < slot_.size() || ordinal >= TableBound()) {
    return;
  }
  const std::size_t first = slot_.size();
  slot_.resize(ordinal + 1, kNoRecord);
  // Records of the newly covered ordinals were inserted while outside the
  // table; point the table at them.
  const BufferId first_id = id_base_ + static_cast<BufferId>(first) * id_stride_;
  auto it = std::lower_bound(records_.begin(), records_.end(), first_id, IdLess);
  for (; it != records_.end(); ++it) {
    const std::size_t covered = OrdinalOf(it->id);
    if (covered < slot_.size()) {
      slot_[covered] = static_cast<std::uint32_t>(it - records_.begin());
    }
  }
}

void BufferDb::Repoint(std::size_t from) {
  for (std::size_t i = from; i < records_.size(); ++i) {
    const std::size_t ordinal = OrdinalOf(records_[i].id);
    if (ordinal < slot_.size()) {
      slot_[ordinal] = static_cast<std::uint32_t>(i);
    }
  }
}

std::size_t BufferDb::HostRank(ServerId host) const {
  const auto it = std::lower_bound(
      free_hosts_.begin(), free_hosts_.end(), host,
      [](const HostFree& entry, ServerId id) { return entry.host < id; });
  return static_cast<std::size_t>(it - free_hosts_.begin());
}

std::size_t BufferDb::FindHost(ServerId host) const {
  if (host < host_slot_.size()) {
    const std::uint32_t slot = host_slot_[host];
    return slot == kNoRecord ? free_hosts_.size() : slot;
  }
  const std::size_t rank = HostRank(host);
  return rank < free_hosts_.size() && free_hosts_[rank].host == host ? rank
                                                                     : free_hosts_.size();
}

std::size_t BufferDb::AddHost(ServerId host) {
  if (const std::size_t found = FindHost(host); found < free_hosts_.size()) {
    return found;
  }
  const std::size_t pos = HostRank(host);
  free_hosts_.insert(free_hosts_.begin() + static_cast<std::ptrdiff_t>(pos),
                     HostFree{.host = host, .ids = {}});
  // Re-point the shifted entries; a grown table also covers hosts added
  // while they were outside it.
  std::size_t from = pos;
  if (host >= host_slot_.size() && host < HostTableBound()) {
    host_slot_.resize(static_cast<std::size_t>(host) + 1, kNoRecord);
    from = 0;
  }
  for (std::size_t i = from; i < free_hosts_.size(); ++i) {
    if (free_hosts_[i].host < host_slot_.size()) {
      host_slot_[free_hosts_[i].host] = static_cast<std::uint32_t>(i);
    }
  }
  return pos;
}

void BufferDb::AddFree(const BufferRecord& record) {
  ++free_count_;
  free_bytes_ += record.size;
  std::vector<BufferId>& ids =
      free_hosts_[AddHost(record.host)].ids[static_cast<std::size_t>(record.type)];
  if (ids.empty() || ids.back() > record.id) {
    ids.push_back(record.id);
  } else {
    ids.insert(std::lower_bound(ids.begin(), ids.end(), record.id, std::greater<>()),
               record.id);
  }
}

void BufferDb::RemoveFree(const BufferRecord& record) {
  --free_count_;
  free_bytes_ -= record.size;
  std::vector<BufferId>& ids =
      free_hosts_[FindHost(record.host)].ids[static_cast<std::size_t>(record.type)];
  if (ids.back() == record.id) {
    ids.pop_back();
  } else {
    ids.erase(std::lower_bound(ids.begin(), ids.end(), record.id, std::greater<>()));
  }
}

Status BufferDb::Insert(const BufferRecord& record) {
  if (record.id == kInvalidBuffer) {
    return Status(ErrorCode::kInvalidArgument, "buffer id 0 is reserved");
  }
  if (PositionOf(record.id).has_value()) {
    return Status(ErrorCode::kConflict, "duplicate buffer id");
  }
  ++inserted_;
  const std::size_t ordinal = OrdinalOf(record.id);
  CoverOrdinal(ordinal);
  // Controller-assigned ids are monotonic, so the common case is an append.
  if (records_.empty() || records_.back().id < record.id) {
    records_.push_back(record);
    if (ordinal < slot_.size()) {
      slot_[ordinal] = static_cast<std::uint32_t>(records_.size() - 1);
    }
  } else {
    auto it = std::lower_bound(records_.begin(), records_.end(), record.id, IdLess);
    const auto pos = static_cast<std::size_t>(it - records_.begin());
    records_.insert(it, record);
    Repoint(pos);
  }
  if (record.user == kNilServer) {
    AddFree(record);
  }
  return Status::Ok();
}

Status BufferDb::EraseAll(std::span<const BufferId> ids) {
  if (ids.empty()) {
    return Status::Ok();
  }
  std::vector<std::size_t> doomed;
  doomed.reserve(ids.size());
  for (BufferId id : ids) {
    const std::optional<std::size_t> pos = PositionOf(id);
    if (!pos.has_value()) {
      return Status(ErrorCode::kNotFound, "unknown buffer id");
    }
    doomed.push_back(*pos);
  }
  std::sort(doomed.begin(), doomed.end());
  if (std::adjacent_find(doomed.begin(), doomed.end()) != doomed.end()) {
    return Status(ErrorCode::kNotFound, "unknown buffer id");  // listed twice
  }
  for (std::size_t pos : doomed) {
    const BufferRecord& rec = records_[pos];
    if (rec.user == kNilServer) {
      RemoveFree(rec);
    }
    if (const std::size_t ordinal = OrdinalOf(rec.id); ordinal < slot_.size()) {
      slot_[ordinal] = kNoRecord;
    }
  }
  // One compaction pass over the records from the first erased one.
  std::size_t out = doomed.front();
  std::size_t next = 0;
  for (std::size_t i = doomed.front(); i < records_.size(); ++i) {
    if (next < doomed.size() && doomed[next] == i) {
      ++next;
      continue;
    }
    records_[out++] = records_[i];
  }
  records_.resize(out);
  Repoint(doomed.front());
  return Status::Ok();
}

std::optional<BufferRecord> BufferDb::Find(BufferId id) const {
  const std::optional<std::size_t> pos = PositionOf(id);
  if (!pos.has_value()) {
    return std::nullopt;
  }
  return records_[*pos];
}

Status BufferDb::AssignAll(std::span<const BufferId> ids, ServerId user) {
  for (BufferId id : ids) {
    const std::optional<std::size_t> pos = PositionOf(id);
    if (!pos.has_value()) {
      return Status(ErrorCode::kNotFound, "unknown buffer id");
    }
    if (records_[*pos].user != kNilServer) {
      return Status(ErrorCode::kConflict, "buffer already allocated");
    }
  }
  if (user == kNilServer) {
    return Status::Ok();  // assigning to nobody leaves every buffer free
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    BufferRecord& rec = records_[*PositionOf(ids[i])];
    if (rec.user != kNilServer) {
      // Listed twice: undo this call's assignments.
      for (std::size_t j = 0; j < i; ++j) {
        BufferRecord& undone = records_[*PositionOf(ids[j])];
        if (undone.user != kNilServer) {
          undone.user = kNilServer;
          AddFree(undone);
        }
      }
      return Status(ErrorCode::kConflict, "buffer already allocated");
    }
    RemoveFree(rec);
    rec.user = user;
  }
  return Status::Ok();
}

std::size_t BufferDb::ReleaseHeld(std::span<const BufferId> ids, ServerId holder) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::optional<std::size_t> pos = PositionOf(ids[i]);
    if (!pos.has_value()) {
      continue;
    }
    BufferRecord& rec = records_[*pos];
    if (rec.user != holder) {
      return i;
    }
    if (rec.user != kNilServer) {
      rec.user = kNilServer;
      AddFree(rec);
    }
  }
  return ids.size();
}

Status BufferDb::Release(BufferId id) {
  const std::optional<std::size_t> pos = PositionOf(id);
  if (!pos.has_value()) {
    return Status(ErrorCode::kNotFound, "unknown buffer id");
  }
  (void)ReleaseHeld({&id, 1}, records_[*pos].user);
  return Status::Ok();
}

void BufferDb::RetypeHost(ServerId host, BufferType type) {
  for (auto& rec : records_) {
    if (rec.host == host) {
      rec.type = type;
    }
  }
  // Move the host's free ids of the other type over, merged in id order.
  const std::size_t h = FindHost(host);
  if (h == free_hosts_.size()) {
    return;
  }
  const BufferType other =
      type == BufferType::kZombie ? BufferType::kActive : BufferType::kZombie;
  std::vector<BufferId>& moved = free_hosts_[h].ids[static_cast<std::size_t>(other)];
  if (moved.empty()) {
    return;
  }
  std::vector<BufferId>& ids = free_hosts_[h].ids[static_cast<std::size_t>(type)];
  const auto middle = static_cast<std::ptrdiff_t>(ids.size());
  ids.insert(ids.end(), moved.begin(), moved.end());
  std::inplace_merge(ids.begin(), ids.begin() + middle, ids.end(), std::greater<>());
  moved.clear();
}

BufferDb::FreeIndex BufferDb::FreeByHost(BufferType type) const {
  FreeIndex ascending;
  for (const HostFree& entry : free_hosts_) {
    const std::vector<BufferId>& ids = entry.ids[static_cast<std::size_t>(type)];
    if (!ids.empty()) {
      ascending.emplace_hint(ascending.end(), entry.host,
                             std::vector<BufferId>(ids.rbegin(), ids.rend()));
    }
  }
  return ascending;
}

std::vector<BufferId> BufferDb::PickFree(BufferType type, std::size_t want) const {
  std::vector<BufferId> picks;
  picks.reserve(want);
  for (std::size_t round = 0; picks.size() < want; ++round) {
    const std::size_t before = picks.size();
    for (const HostFree& entry : free_hosts_) {
      if (picks.size() == want) {
        break;
      }
      const std::vector<BufferId>& ids = entry.ids[static_cast<std::size_t>(type)];
      if (round < ids.size()) {
        picks.push_back(ids[ids.size() - 1 - round]);
      }
    }
    if (picks.size() == before) {
      break;
    }
  }
  return picks;
}

std::vector<BufferRecord> BufferDb::BuffersOfHost(ServerId host) const {
  std::vector<BufferRecord> out;
  for (const auto& rec : records_) {
    if (rec.host == host) {
      out.push_back(rec);
    }
  }
  return out;
}

std::vector<BufferRecord> BufferDb::BuffersUsedBy(ServerId user) const {
  std::vector<BufferRecord> out;
  for (const auto& rec : records_) {
    if (rec.user == user) {
      out.push_back(rec);
    }
  }
  return out;
}

std::vector<BufferRecord> BufferDb::ReclaimOrderForHost(ServerId host) const {
  std::vector<BufferRecord> all = BuffersOfHost(host);
  std::stable_sort(all.begin(), all.end(), [](const BufferRecord& a, const BufferRecord& b) {
    const bool a_free = a.user == kNilServer;
    const bool b_free = b.user == kNilServer;
    if (a_free != b_free) {
      return a_free;  // free buffers first
    }
    return a.id < b.id;
  });
  return all;
}

Bytes BufferDb::TotalBytes() const {
  Bytes total = 0;
  for (const auto& rec : records_) {
    total += rec.size;
  }
  return total;
}

std::vector<BufferRecord> BufferDb::Snapshot() const { return records_; }

void BufferDb::Load(const std::vector<BufferRecord>& records) {
  records_ = records;
  std::sort(records_.begin(), records_.end(),
            [](const BufferRecord& a, const BufferRecord& b) { return a.id < b.id; });
  inserted_ += records_.size();
  slot_.clear();
  // Ordinals ascend with ids, so the first one the bound admits from the top
  // sizes the table.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (const std::size_t ordinal = OrdinalOf(it->id); ordinal < TableBound()) {
      CoverOrdinal(ordinal);
      break;
    }
  }
  free_hosts_.clear();
  host_slot_.clear();
  free_count_ = 0;
  free_bytes_ = 0;
  // Descending ids, so every free list grows at its back.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->user == kNilServer) {
      AddFree(*it);
    }
  }
}

}  // namespace zombie::remotemem
