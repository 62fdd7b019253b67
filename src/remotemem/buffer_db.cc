#include "src/remotemem/buffer_db.h"

#include <algorithm>

namespace zombie::remotemem {

std::string_view BufferTypeName(BufferType t) {
  return t == BufferType::kZombie ? "zombie" : "active";
}

namespace {

bool IdLess(const BufferRecord& record, BufferId id) { return record.id < id; }

}  // namespace

std::optional<std::size_t> BufferDb::PositionOf(BufferId id) const {
  auto it = position_.find(id);
  if (it == position_.end()) {
    return std::nullopt;
  }
  if (it->second < stale_from_) {
    return it->second;
  }
  // The record sits in the shifted tail; its stored position may lag.
  auto tail = records_.begin() + static_cast<std::ptrdiff_t>(stale_from_);
  auto found = std::lower_bound(tail, records_.end(), id, IdLess);
  if (found == records_.end() || found->id != id) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(found - records_.begin());
}

const BufferRecord* BufferDb::FindRecord(BufferId id) const {
  const std::optional<std::size_t> pos = PositionOf(id);
  return pos.has_value() ? &records_[*pos] : nullptr;
}

BufferRecord* BufferDb::FindMutable(BufferId id) {
  if (stale_from_ != kAllFresh) {
    for (std::size_t i = stale_from_; i < records_.size(); ++i) {
      position_[records_[i].id] = i;
    }
    stale_from_ = kAllFresh;
  }
  return const_cast<BufferRecord*>(FindRecord(id));
}

void BufferDb::AddFree(const BufferRecord& record) {
  ++free_count_;
  free_bytes_ += record.size;
  std::vector<BufferId>& ids = free_by_host_[static_cast<std::size_t>(record.type)][record.host];
  if (ids.empty() || ids.back() < record.id) {
    ids.push_back(record.id);
  } else {
    ids.insert(std::lower_bound(ids.begin(), ids.end(), record.id), record.id);
  }
}

void BufferDb::RemoveFree(const BufferRecord& record) {
  --free_count_;
  free_bytes_ -= record.size;
  FreeIndex& index = free_by_host_[static_cast<std::size_t>(record.type)];
  auto host = index.find(record.host);
  std::vector<BufferId>& ids = host->second;
  ids.erase(std::lower_bound(ids.begin(), ids.end(), record.id));
  if (ids.empty()) {
    index.erase(host);
  }
}

Status BufferDb::Insert(const BufferRecord& record) {
  if (record.id == kInvalidBuffer) {
    return Status(ErrorCode::kInvalidArgument, "buffer id 0 is reserved");
  }
  if (position_.contains(record.id)) {
    return Status(ErrorCode::kConflict, "duplicate buffer id");
  }
  // Controller-assigned ids are monotonic, so the common case is an append.
  if (records_.empty() || records_.back().id < record.id) {
    records_.push_back(record);
    position_[record.id] = records_.size() - 1;
  } else {
    auto it = std::lower_bound(records_.begin(), records_.end(), record.id, IdLess);
    const auto pos = static_cast<std::size_t>(it - records_.begin());
    records_.insert(it, record);
    position_[record.id] = pos;
    stale_from_ = std::min(stale_from_, pos);
  }
  if (record.user == kNilServer) {
    AddFree(record);
  }
  return Status::Ok();
}

Status BufferDb::Erase(BufferId id) {
  const std::optional<std::size_t> pos = PositionOf(id);
  if (!pos.has_value()) {
    return Status(ErrorCode::kNotFound, "unknown buffer id");
  }
  position_.erase(id);
  if (records_[*pos].user == kNilServer) {
    RemoveFree(records_[*pos]);
  }
  records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(*pos));
  stale_from_ = std::min(stale_from_, *pos);
  return Status::Ok();
}

std::optional<BufferRecord> BufferDb::Find(BufferId id) const {
  const BufferRecord* record = FindRecord(id);
  if (record == nullptr) {
    return std::nullopt;
  }
  return *record;
}

Status BufferDb::Assign(BufferId id, ServerId user) {
  BufferRecord* record = FindMutable(id);
  if (record == nullptr) {
    return Status(ErrorCode::kNotFound, "unknown buffer id");
  }
  if (record->user != kNilServer) {
    return Status(ErrorCode::kConflict, "buffer already allocated");
  }
  if (user != kNilServer) {
    RemoveFree(*record);
  }
  record->user = user;
  return Status::Ok();
}

Status BufferDb::Release(BufferId id) {
  BufferRecord* record = FindMutable(id);
  if (record == nullptr) {
    return Status(ErrorCode::kNotFound, "unknown buffer id");
  }
  if (record->user != kNilServer) {
    record->user = kNilServer;
    AddFree(*record);
  }
  return Status::Ok();
}

void BufferDb::RetypeHost(ServerId host, BufferType type) {
  for (auto& rec : records_) {
    if (rec.host == host) {
      rec.type = type;
    }
  }
  // Move the host's free ids of the other type over, merged in id order.
  const BufferType other =
      type == BufferType::kZombie ? BufferType::kActive : BufferType::kZombie;
  FreeIndex& from = free_by_host_[static_cast<std::size_t>(other)];
  auto moved = from.find(host);
  if (moved == from.end()) {
    return;
  }
  std::vector<BufferId>& ids = free_by_host_[static_cast<std::size_t>(type)][host];
  const auto middle = static_cast<std::ptrdiff_t>(ids.size());
  ids.insert(ids.end(), moved->second.begin(), moved->second.end());
  std::inplace_merge(ids.begin(), ids.begin() + middle, ids.end());
  from.erase(moved);
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

std::size_t BufferDb::AllocatedCountOfHost(ServerId host) const {
  std::size_t n = 0;
  for (const auto& rec : records_) {
    if (rec.host == host && rec.user != kNilServer) {
      ++n;
    }
  }
  return n;
}

std::vector<BufferRecord> BufferDb::Snapshot() const { return records_; }

void BufferDb::Load(const std::vector<BufferRecord>& records) {
  records_ = records;
  std::sort(records_.begin(), records_.end(),
            [](const BufferRecord& a, const BufferRecord& b) { return a.id < b.id; });
  position_.clear();
  position_.reserve(records_.size());
  stale_from_ = kAllFresh;
  for (auto& index : free_by_host_) {
    index.clear();
  }
  free_count_ = 0;
  free_bytes_ = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    position_[records_[i].id] = i;
    if (records_[i].user == kNilServer) {
      AddFree(records_[i]);
    }
  }
}

}  // namespace zombie::remotemem
