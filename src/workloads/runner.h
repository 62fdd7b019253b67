// The workload runner: drives an application profile through one of the
// memory configurations of Section 6 and reports simulated execution time.
//
// Configurations:
//  * local-only baseline   — all reserved memory resident (vanilla KVM with
//                            enough RAM, the Table-1 reference run);
//  * RAM Ext               — hypervisor paging, a fraction of reserved
//                            memory local, the rest in remote buffers;
//  * Explicit SD           — the VM gets the local fraction as visible RAM
//                            plus a swap device (remote RAM / SSD / HDD),
//                            and the guest kernel pages: HostPager with
//                            plain Clock on the visible RAM minus the guest
//                            reserve, amplified writebacks, and every swap
//                            I/O through a SplitDriverBackend.
#ifndef ZOMBIELAND_SRC_WORKLOADS_RUNNER_H_
#define ZOMBIELAND_SRC_WORKLOADS_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/hv/backend.h"
#include "src/hv/pager.h"
#include "src/hv/replacement.h"
#include "src/workloads/app_models.h"

namespace zombie::workloads {

struct RunResult {
  Duration sim_time = 0;           // total simulated execution time
  hv::PagerStats pager;            // paging statistics
  std::string config;              // human-readable configuration

  double seconds() const { return ToSeconds(sim_time); }
};

// Penalty in percent: how much longer `run` took than `baseline`.
double PenaltyPercent(const RunResult& run, const RunResult& baseline);

// The hypervisor's replacement policy for the local-only and RAM Ext runs
// (Explicit SD always pages with the guest's plain Clock).
struct RunnerOptions {
  hv::PolicyKind policy = hv::PolicyKind::kMixed;
  std::size_t mixed_depth = 5;
};

class WorkloadRunner {
 public:
  explicit WorkloadRunner(RunnerOptions options = {}) : options_(options) {}

  // Baseline: everything local, no paging backend pressure.
  RunResult RunLocalOnly(const AppProfile& profile);

  // RAM Ext with `local_fraction` of the VM's reserved memory in local RAM
  // and the remainder served by `backend` (normally a RemoteBackend).
  RunResult RunRamExt(const AppProfile& profile, double local_fraction,
                      hv::PageBackend* backend);

  // Explicit SD: visible RAM = local_fraction * reserved; swap on `device`
  // behind the split driver.
  RunResult RunExplicitSd(const AppProfile& profile, double local_fraction,
                          hv::PageBackend* device);

  const RunnerOptions& options() const { return options_; }

 private:
  RunnerOptions options_;
};

}  // namespace zombie::workloads

#endif  // ZOMBIELAND_SRC_WORKLOADS_RUNNER_H_
