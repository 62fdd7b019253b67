// Where evicted pages go: the backend behind hypervisor paging (RAM Ext) or,
// wrapped in a SplitDriverBackend, behind a guest-visible swap device
// (Explicit SD).
#ifndef ZOMBIELAND_SRC_HV_BACKEND_H_
#define ZOMBIELAND_SRC_HV_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/hv/page_table.h"
#include "src/hv/params.h"
#include "src/remotemem/memory_manager.h"

namespace zombie::hv {

class PageBackend {
 public:
  virtual ~PageBackend() = default;

  // Stores / loads one 4 KiB page.  Returns the simulated foreground cost.
  [[nodiscard]] virtual Result<Duration> StorePage(PageIndex page) = 0;
  [[nodiscard]] virtual Result<Duration> LoadPage(PageIndex page) = 0;

  virtual std::string name() const = 0;
  // Pages this backend can hold; kNoLimit for device-backed swap.
  virtual std::uint64_t capacity_pages() const = 0;

  // If every Store/LoadPage succeeds with a fixed cost and no side effects,
  // returns those latencies; the pagers then skip the virtual call + Result
  // round trip on the fault path.  Null for backends that do accounting or
  // can fail (e.g. RemoteBackend).
  virtual const DeviceLatency* fixed_latency() const { return nullptr; }

  static constexpr std::uint64_t kNoLimit = ~0ULL;
};

// Remote memory over RDMA (a RemoteExtent granted by the global controller).
class RemoteBackend final : public PageBackend {
 public:
  explicit RemoteBackend(remotemem::RemoteExtent* extent) : extent_(extent) {}

  [[nodiscard]] Result<Duration> StorePage(PageIndex page) override {
    return extent_->WritePage(page, {});
  }
  [[nodiscard]] Result<Duration> LoadPage(PageIndex page) override { return extent_->ReadPage(page, {}); }

  std::string name() const override { return "remote-ram"; }
  std::uint64_t capacity_pages() const override { return extent_->capacity_pages(); }

  remotemem::RemoteExtent* extent() { return extent_; }

 private:
  remotemem::RemoteExtent* extent_;
};

// A local block device (SSD / HDD) used as swap.
class DeviceBackend final : public PageBackend {
 public:
  DeviceBackend(std::string device_name, DeviceLatency latency)
      : name_(std::move(device_name)), latency_(latency) {}

  [[nodiscard]] Result<Duration> StorePage(PageIndex) override { return latency_.write; }
  [[nodiscard]] Result<Duration> LoadPage(PageIndex) override { return latency_.read; }

  std::string name() const override { return name_; }
  std::uint64_t capacity_pages() const override { return kNoLimit; }
  const DeviceLatency* fixed_latency() const override { return &latency_; }

 private:
  std::string name_;
  DeviceLatency latency_;
};

// The Explicit SD path to a swap device: every guest block request crosses
// the virtio split driver (frontend/backend) before it reaches `inner`, which
// adds kSplitDriverOverhead to each page store and load.  Borrows `inner`.
class SplitDriverBackend final : public PageBackend {
 public:
  explicit SplitDriverBackend(PageBackend* inner) : inner_(inner) {
    if (const DeviceLatency* fixed = inner_->fixed_latency()) {
      latency_ = {fixed->read + kSplitDriverOverhead, fixed->write + kSplitDriverOverhead};
    }
  }

  [[nodiscard]] Result<Duration> StorePage(PageIndex page) override {
    auto store = inner_->StorePage(page);
    if (!store.ok()) {
      return store;
    }
    return store.value() + kSplitDriverOverhead;
  }
  [[nodiscard]] Result<Duration> LoadPage(PageIndex page) override {
    auto load = inner_->LoadPage(page);
    if (!load.ok()) {
      return load;
    }
    return load.value() + kSplitDriverOverhead;
  }

  std::string name() const override { return inner_->name(); }
  std::uint64_t capacity_pages() const override { return inner_->capacity_pages(); }
  // A fixed-cost device stays fixed-cost (and keeps the pagers' devirtualised
  // fault path) with the overhead folded into its latencies.
  const DeviceLatency* fixed_latency() const override {
    return inner_->fixed_latency() != nullptr ? &latency_ : nullptr;
  }

 private:
  PageBackend* inner_;
  DeviceLatency latency_;
};

// Convenience constructors for the Table-2 devices.
inline std::unique_ptr<DeviceBackend> MakeLocalSsdBackend() {
  return std::make_unique<DeviceBackend>("local-ssd", kLocalSsd);
}
inline std::unique_ptr<DeviceBackend> MakeLocalHddBackend() {
  return std::make_unique<DeviceBackend>("local-hdd", kLocalHdd);
}

}  // namespace zombie::hv

#endif  // ZOMBIELAND_SRC_HV_BACKEND_H_
