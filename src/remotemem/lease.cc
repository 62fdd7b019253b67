#include "src/remotemem/lease.h"

#include <algorithm>

namespace zombie::remotemem {

LeaseManager::Lease* LeaseManager::FindLease(ServerId host) {
  auto it = std::lower_bound(
      leases_.begin(), leases_.end(), host,
      [](const Lease& l, ServerId h) { return l.host < h; });
  if (it == leases_.end() || it->host != host) return nullptr;
  return &*it;
}

const LeaseManager::Lease* LeaseManager::FindLease(ServerId host) const {
  return const_cast<LeaseManager*>(this)->FindLease(host);
}

std::uint64_t LeaseManager::Grant(ServerId host, SimTime now) {
  Lease* lease = FindLease(host);
  if (lease == nullptr) {
    auto it = std::lower_bound(
        leases_.begin(), leases_.end(), host,
        [](const Lease& l, ServerId h) { return l.host < h; });
    it = leases_.insert(it, Lease{.host = host});
    lease = &*it;
  }
  lease->epoch += 1;
  lease->deadline = now + config_.ttl;
  lease->expired = false;
  return lease->epoch;
}

Status LeaseManager::Renew(ServerId host, SimTime now) {
  Lease* lease = FindLease(host);
  if (lease == nullptr) {
    return Status(ErrorCode::kNotFound, "host holds no lease");
  }
  if (lease->expired || lease->deadline < now) {
    return Status(ErrorCode::kFailedPrecondition,
                  "lease already expired; host must be re-granted");
  }
  lease->deadline = now + config_.ttl;
  return Status::Ok();
}

std::uint64_t LeaseManager::Touch(ServerId host, SimTime now) {
  Lease* lease = FindLease(host);
  if (lease != nullptr && !lease->expired && lease->deadline >= now) {
    lease->deadline = now + config_.ttl;
    return lease->epoch;
  }
  return Grant(host, now);
}

std::vector<ServerId> LeaseManager::ExpireDue(SimTime now) {
  std::vector<ServerId> lapsed;
  for (Lease& lease : leases_) {  // sorted by host → ascending output
    if (!lease.expired && lease.deadline < now) {
      lease.expired = true;
      lapsed.push_back(lease.host);
    }
  }
  return lapsed;
}

bool LeaseManager::IsLive(ServerId host, SimTime now) const {
  const Lease* lease = FindLease(host);
  return lease != nullptr && !lease->expired && lease->deadline >= now;
}

std::uint64_t LeaseManager::epoch(ServerId host) const {
  const Lease* lease = FindLease(host);
  return lease == nullptr ? 0 : lease->epoch;
}

SimTime LeaseManager::deadline(ServerId host) const {
  const Lease* lease = FindLease(host);
  return lease == nullptr ? 0 : lease->deadline;
}

}  // namespace zombie::remotemem
