// Header-hygiene spot check: every public header must compile when included
// on its own.  This TU includes each of them first (alphabetical order, which
// also means no header may depend on a "later" sibling being included
// beforehand), and the one registered test only exists so the TU stays wired
// into ctest and can never silently drop out of the build.
//
// Regenerate the list after adding a header:
//   find src -name '*.h' | sort | sed 's|.*|#include "&"|'
#include "src/acpi/device.h"
#include "src/acpi/energy_model.h"
#include "src/acpi/firmware.h"
#include "src/acpi/machine.h"
#include "src/acpi/ospm.h"
#include "src/acpi/power_domain.h"
#include "src/acpi/power_meter.h"
#include "src/acpi/registers.h"
#include "src/acpi/sleep_state.h"
#include "src/cloud/admission.h"
#include "src/cloud/faults.h"
#include "src/cloud/placement.h"
#include "src/cloud/rack.h"
#include "src/cloud/rack_energy.h"
#include "src/cloud/server.h"
#include "src/common/env.h"
#include "src/common/event_queue.h"
#include "src/common/logging.h"
#include "src/common/report.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/common/work_queue.h"
#include "src/hv/backend.h"
#include "src/hv/fault_batch.h"
#include "src/hv/page_table.h"
#include "src/hv/pager.h"
#include "src/hv/params.h"
#include "src/hv/replacement.h"
#include "src/hv/sharded_pager.h"
#include "src/hv/vm.h"
#include "src/migration/migration.h"
#include "src/rdma/fabric.h"
#include "src/rdma/verbs.h"
#include "src/remotemem/buffer_db.h"
#include "src/remotemem/global_controller.h"
#include "src/remotemem/lease.h"
#include "src/remotemem/memory_manager.h"
#include "src/remotemem/secondary_controller.h"
#include "src/remotemem/sharded_plane.h"
#include "src/remotemem/types.h"
#include "src/scenario/diff.h"
#include "src/scenario/driver.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario.h"
#include "src/scenario/spec.h"
#include "src/scenario/testbed.h"
#include "src/serve/daemon.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"
#include "src/serve/stream.h"
#include "src/sim/consolidation.h"
#include "src/sim/cooling.h"
#include "src/sim/dc_sim.h"
#include "src/sim/trace.h"
#include "src/workloads/access_pattern.h"
#include "src/workloads/app_models.h"
#include "src/workloads/runner.h"
#include "src/workloads/sharded_hotloop.h"

#include <gtest/gtest.h>

namespace zombie {
namespace {

TEST(IncludeSelfcheck, AllPublicHeadersCompile) { SUCCEED(); }

}  // namespace
}  // namespace zombie
