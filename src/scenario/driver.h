// The `zombieland` CLI driver: one binary for every registered scenario.
//
//   zombieland list [--format=table|csv|json]
//   zombieland run <name>... [--smoke] [--format=table|csv|json]
//                  [--out=FILE] [--set key=value]... [--filter axis=v1,v2]...
//                  [-j N] [--timings]
//   zombieland run --all --smoke --format=json      # the CI smoke pass
//   zombieland diff old.json new.json               # cross-run metric deltas
//
// JSON output is self-checked against the report schema before it is
// emitted — a scenario whose document does not validate fails the run.
#ifndef ZOMBIELAND_SRC_SCENARIO_DRIVER_H_
#define ZOMBIELAND_SRC_SCENARIO_DRIVER_H_

#include "src/scenario/scenario.h"

namespace zombie::scenario {

// Full CLI entry point (the zombieland binary's main).
int ZombielandMain(int argc, char** argv);

}  // namespace zombie::scenario

#endif  // ZOMBIELAND_SRC_SCENARIO_DRIVER_H_
