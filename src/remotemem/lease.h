// Lease bookkeeping for the sharded control plane.
//
// A controller grants every registered host a time-bounded lease over its
// participation in the remote-memory pool.  Hosts renew by heartbeating
// (S0 hosts with a request/response exchange, zombies via a controller-side
// one-sided liveness probe — they have no CPU to send anything).  A lease that is not renewed
// before its deadline expires: the control plane then drops the host's
// hosted buffers (after US_reclaim notices to their users) and releases the
// buffers the host was consuming, so ownership invariants survive a silent
// host death.  All time is simulated (SimTime), so every expiry is a
// deterministic event.
#ifndef ZOMBIELAND_SRC_REMOTEMEM_LEASE_H_
#define ZOMBIELAND_SRC_REMOTEMEM_LEASE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/remotemem/types.h"

namespace zombie::remotemem {

struct LeaseConfig {
  // Missed-heartbeat deadline: a host whose last renewal is older than this
  // is declared dead at the next ExpireDue() sweep.
  Duration ttl = 300 * kMillisecond;
};

class LeaseManager {
 public:
  explicit LeaseManager(LeaseConfig config = {}) : config_(config) {}

  const LeaseConfig& config() const { return config_; }

  // Grants a fresh lease (new epoch) to `host`, replacing any prior lease,
  // expired or not.  Returns the new epoch (monotone per host, starting 1).
  std::uint64_t Grant(ServerId host, SimTime now);

  // Renews a live lease.  kNotFound when the host was never granted one;
  // kFailedPrecondition when the lease already expired (the host must be
  // re-admitted with Grant, which starts a new epoch).
  [[nodiscard]] Status Renew(ServerId host, SimTime now);

  // Renew-or-re-grant: the "host made contact" path.  A live lease is
  // renewed; an expired or missing one is re-granted with a fresh epoch.
  // Returns the lease's epoch after the touch.
  std::uint64_t Touch(ServerId host, SimTime now);

  // Sweeps the table: every live lease whose deadline has passed is marked
  // expired, and the newly expired hosts are returned in ascending id order
  // (deterministic cleanup order for the control plane).
  std::vector<ServerId> ExpireDue(SimTime now);

  bool IsLive(ServerId host, SimTime now) const;
  // 0 when the host never held a lease.
  std::uint64_t epoch(ServerId host) const;
  // kInvalidSimTime semantics: 0 when the host never held a lease.
  SimTime deadline(ServerId host) const;

  std::size_t size() const { return leases_.size(); }

 private:
  struct Lease {
    ServerId host = kNilServer;
    SimTime deadline = 0;
    std::uint64_t epoch = 0;
    bool expired = false;
  };

  Lease* FindLease(ServerId host);
  const Lease* FindLease(ServerId host) const;

  LeaseConfig config_;
  std::vector<Lease> leases_;  // sorted by host id
};

}  // namespace zombie::remotemem

#endif  // ZOMBIELAND_SRC_REMOTEMEM_LEASE_H_
