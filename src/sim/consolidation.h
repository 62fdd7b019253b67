// VM consolidation (Section 5.2): OpenStack Neat's drain-and-suspend, planned
// over a plain view of the hosts.  Neat has four steps:
//   1. find the underloaded hosts: modelled — an awake host with VMs whose
//      actual CPU load is at most kUnderloadCpu;
//   2. find the overloaded hosts and offload some of their VMs: not
//      modelled.  Placement and this planner never book more CPU than a host
//      has, so no VM runs short of its booking and there is no QoS
//      violation to relieve; offloading only spreads load, so it cannot add
//      to the energy saving of Fig. 10;
//   3. select the VMs to migrate: modelled — every VM of an underloaded host;
//   4. place them: modelled — stacking onto the awake host with the highest
//      booked CPU.
// Waking a suspended host when an arrival fits nowhere is the caller's job
// (sim/dc_sim.cc); the planner only drains and suspends.
//
// The policies differ only in how much local memory a moved VM needs, which
// the caller puts in VmView::needed_if_moved: vanilla Neat needs the full
// booking, Oasis moves only an idle VM's working set, and ZombieStack needs
// kWssLocalFraction of the working set (the rest is served from zombie
// memory).  The planner never branches on the policy.
#ifndef ZOMBIELAND_SRC_SIM_CONSOLIDATION_H_
#define ZOMBIELAND_SRC_SIM_CONSOLIDATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/acpi/sleep_state.h"

namespace zombie::sim {

// An awake host whose actual CPU load is at most this is drained (the
// paper's 20%).
inline constexpr double kUnderloadCpu = 0.20;

// ZombieStack: the fraction of a moved VM's working set that must be local
// on its target ("we modify this constraint to only check if 30% of the VM's
// working set size is available on the target server").
inline constexpr double kWssLocalFraction = 0.30;

// CPU and memory are in server units: 1.0 is one server's capacity.
struct VmView {
  std::uint64_t id = 0;  // the caller's handle, echoed in the plan's moves
  double booked_cpu = 0.0;
  double used_cpu = 0.0;         // actual load
  double local_mem = 0.0;        // held on its current host
  double needed_if_moved = 0.0;  // local memory it needs on a target
};

struct HostView {
  acpi::SleepState state = acpi::SleepState::kS0;
  double booked_cpu = 0.0;  // sum of its VMs' booked CPU
  double used_cpu = 0.0;    // sum of its VMs' actual load
  double local_mem = 0.0;   // memory its VMs hold locally
  double lent_mem = 0.0;    // delegated to the zombie pool
  std::vector<VmView> vms;
};

struct Move {
  std::uint64_t vm = 0;
  std::size_t from = 0;  // host indices into the planned view
  std::size_t to = 0;
};

struct ConsolidationPlan {
  std::vector<Move> moves;            // in execution order
  std::vector<std::size_t> suspend;   // hosts left awake and empty, ascending
};

// Plans one consolidation round.  Underloaded hosts are drained least-loaded
// first (stable in host order).  Each VM goes to the awake host, other than
// its source, with the highest booked CPU (lowest index on ties) that still
// fits it within CPU 1.0 and memory 1.0 - lent, counting the source's earlier
// tentative moves.  A host is drained only if all its VMs find a target, and
// each drain is applied to `hosts` before the next source is planned.  Every
// awake host left empty is then suspended.  A VM moved onto an underloaded
// host can move again when that host is drained later in the round.
ConsolidationPlan PlanConsolidation(std::vector<HostView> hosts);

}  // namespace zombie::sim

#endif  // ZOMBIELAND_SRC_SIM_CONSOLIDATION_H_
