// A simulated PowerSpy2-style power analyzer: samples a machine's draw over
// simulated time and integrates energy.  Used by the Table-3 bench and the
// datacenter energy accounting.
#ifndef ZOMBIELAND_SRC_ACPI_POWER_METER_H_
#define ZOMBIELAND_SRC_ACPI_POWER_METER_H_

#include "src/acpi/machine.h"
#include "src/common/units.h"

namespace zombie::acpi {

class PowerMeter {
 public:
  explicit PowerMeter(const Machine* machine) : machine_(machine) {}

  // Accounts the machine's current draw over `dt` of simulated time.
  void Sample(Duration dt) {
    if (dt <= 0) {
      return;
    }
    energy_ += EnergyOf(machine_->PowerNow(), dt);
    // Track the percent-of-max integral too, for relative comparisons.
    percent_seconds_ += machine_->PowerPercentNow() * ToSeconds(dt);
    observed_ += dt;
  }

  double energy_joules() const { return MjToJoules(energy_); }
  Duration observed() const { return observed_; }

  // Average draw as percent of the machine's max over the observed window.
  double average_percent() const {
    return observed_ == 0 ? 0.0 : percent_seconds_ / ToSeconds(observed_);
  }

  void Reset() {
    energy_ = 0;
    percent_seconds_ = 0.0;
    observed_ = 0;
  }

 private:
  const Machine* machine_;
  EnergyMj energy_ = 0;
  double percent_seconds_ = 0.0;
  Duration observed_ = 0;
};

}  // namespace zombie::acpi

#endif  // ZOMBIELAND_SRC_ACPI_POWER_METER_H_
