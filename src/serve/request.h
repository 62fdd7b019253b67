// Request types of the online serving mode.
//
// A long-running zombieland rack does not replay a fixed workload: it admits
// a continuous stream of VM arrival, departure and resize requests.  Each
// request is timestamped in simulated time; the stream generator
// (src/serve/stream.h) produces a deterministic timeline and the daemon
// (src/serve/daemon.h) drains it in time order.
#ifndef ZOMBIELAND_SRC_SERVE_REQUEST_H_
#define ZOMBIELAND_SRC_SERVE_REQUEST_H_

#include <cstdint>

#include "src/cloud/admission.h"
#include "src/common/units.h"
#include "src/hv/vm.h"

namespace zombie::serve {

enum class RequestKind : std::uint8_t {
  kArrive = 0,  // boot a new VM (vm carries the full spec)
  kDepart,      // tear down vm.id
  kResize,      // re-book vm.id at vm.reserved_memory / vm.vcpus
};

const char* RequestKindName(RequestKind kind);

struct Request {
  SimTime at = 0;  // when the request reaches the daemon
  RequestKind kind = RequestKind::kArrive;
  cloud::TenantId tenant = 0;
  // kArrive: the full booking.  kDepart: only vm.id matters.  kResize: the
  // target shape (vm.id plus the new reserved_memory / vcpus).
  hv::VmSpec vm;
};

// Why a request was turned away.  Every shed is counted under exactly one of
// these, so the serving report can tell an admission-control "no" (the gate
// protecting the §4.4 invariant) from backpressure (the rack temporarily
// unable to place an admitted booking).
enum class ShedReason : std::uint8_t {
  kThrottled = 0,   // token bucket dry: the tenant stream exceeds the gate rate
  kTenantQuota,     // per-tenant memory/vCPU quota exceeded
  kRackBudget,      // §4.4: reservation does not fit awake + zombie memory
  kQueueFull,       // backpressure queue at its bounded depth
  kQueueTimeout,    // admitted but unplaceable within the queue deadline
  kCount,           // sentinel (array size)
};

inline constexpr std::size_t kShedReasonCount = static_cast<std::size_t>(ShedReason::kCount);

const char* ShedReasonName(ShedReason reason);

}  // namespace zombie::serve

#endif  // ZOMBIELAND_SRC_SERVE_REQUEST_H_
