// Facility cooling model — the paper's footnote 1: "The low energy
// consumption of a Zombie server translates into less dissipated heat.
// Thereby, the Zombie technology also decreases the energy consumed by the
// datacenter cooling system."
//
// Cooling power tracks dissipated IT heat through a load-dependent partial
// PUE with *staged* cooling (zoned CRAC units, variable-speed fans): a small
// always-on overhead plus a variable component that grows superlinearly with
// thermal load — fan power follows the cube of airflow, so removing the last
// watts of heat is the expensive part.  Consequently lowering heat (what
// zombies do) saves cooling energy more than proportionally, which is the
// footnote-1 claim.  Facility energy = IT energy * PUE(load).
#ifndef ZOMBIELAND_SRC_SIM_COOLING_H_
#define ZOMBIELAND_SRC_SIM_COOLING_H_

#include <algorithm>
#include <cmath>

namespace zombie::sim {

// Always-on cooling overhead per IT watt (air handling floor).
inline constexpr double kCoolingBaseOverhead = 0.10;
// Variable overhead at full thermal load (chillers + fan laws).
inline constexpr double kCoolingVariableOverhead = 0.25;
// Sub-linear exponent on the overhead *fraction*: overhead per watt grows
// with load, i.e. total cooling grows superlinearly in heat.
inline constexpr double kCoolingExponent = 0.5;

// Partial PUE at the given IT load (fraction of the facility's max IT
// power, in [0,1]).  PUE(0) = 1 + base; PUE(1) = 1 + base + variable.
inline double PueAt(double it_load_fraction) {
  const double load = std::clamp(it_load_fraction, 0.0, 1.0);
  return 1.0 + kCoolingBaseOverhead +
         kCoolingVariableOverhead * std::pow(load, kCoolingExponent);
}

// Facility energy for a given IT energy delivered at an average load.
inline double FacilityEnergy(double it_energy, double average_load) {
  return it_energy * PueAt(average_load);
}

}  // namespace zombie::sim

#endif  // ZOMBIELAND_SRC_SIM_COOLING_H_
