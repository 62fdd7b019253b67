// VM descriptors shared by the hypervisor, migration and cloud layers.
#ifndef ZOMBIELAND_SRC_HV_VM_H_
#define ZOMBIELAND_SRC_HV_VM_H_

#include <cstdint>
#include <string>

#include "src/common/units.h"

namespace zombie::hv {

using VmId = std::uint64_t;

// How a VM consumes memory beyond its local share.
enum class MemoryMode : std::uint8_t {
  kLocalOnly = 0,   // vanilla: all RAM local
  kRamExt = 1,      // hypervisor paging to remote buffers (transparent)
  kExplicitSd = 2,  // smaller RAM + guest-visible swap device
};

struct VmSpec {
  VmId id = 0;
  std::string name;
  // Reserved (booked) resources.
  Bytes reserved_memory = 1 * kGiB;
  std::uint32_t vcpus = 8;  // the paper: "every VM uses 8 processors"
  // Estimated working-set size; drives consolidation decisions and the
  // migration protocol.
  Bytes working_set = 512 * kMiB;
  MemoryMode mode = MemoryMode::kLocalOnly;
};

}  // namespace zombie::hv

#endif  // ZOMBIELAND_SRC_HV_VM_H_
