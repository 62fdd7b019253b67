// Rack-level energy comparison of disaggregation architectures (Fig. 4).
//
// The paper illustrates a three-server rack with a demand profile that
// leaves one server's CPUs fully idle while its memory is still needed, and
// compares: (a) server-centric, (b) ideal board-level disaggregation,
// (c) micro-servers, (d) zombie servers.  This estimator reproduces those
// rack-energy figures (in units of Emax) for any demand vector.
#ifndef ZOMBIELAND_SRC_CLOUD_RACK_ENERGY_H_
#define ZOMBIELAND_SRC_CLOUD_RACK_ENERGY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/acpi/energy_model.h"

namespace zombie::cloud {

enum class Architecture : std::uint8_t {
  kServerCentric = 0,   // Fig. 4(a)
  kIdealDisaggregated,  // Fig. 4(b)
  kMicroServers,        // Fig. 4(c)
  kZombie,              // Fig. 4(d)
};

std::string_view ArchitectureName(Architecture a);

// Demand on one server slot, as fractions of a server's capacity.
struct SlotDemand {
  double cpu = 0.0;
  double memory = 0.0;
};

// Component fractions of a server's full power (coarse, for the Fig. 4
// style first-order comparison).
inline constexpr double kCpuBoardFraction = 0.65;  // CPU board / complex at full load
inline constexpr double kMemBoardFraction = 0.12;  // memory board at full load (DRAM is
                                                   // a modest slice of server power)
inline constexpr double kOtherFraction = 0.23;     // NIC/storage/platform
inline constexpr double kIdleScale = 0.30;         // idle draw of a powered component
inline constexpr double kSuspendFraction = 0.05;   // suspended server (S3-class)
inline constexpr double kZombieFraction = 0.12;    // Sz draw (Table 3 magnitude)
// Micro-servers per commodity server slot.
inline constexpr int kMicroserversPerSlot = 4;

// Rack energy in units of Emax (one server's full-load energy) for serving
// `demand` under the given architecture.  The demand slots map onto servers
// (or groups of micro-servers) 1:1.
double RackEnergy(Architecture arch, const std::vector<SlotDemand>& demand);

// The exact demand profile illustrated in Fig. 4: server 1 fully busy,
// server 2 busy with spare memory, server 3 CPU-idle but memory needed.
std::vector<SlotDemand> Figure4Demand();

}  // namespace zombie::cloud

#endif  // ZOMBIELAND_SRC_CLOUD_RACK_ENERGY_H_
