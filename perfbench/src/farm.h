/**
 * @file
 * The daemon_farm workload: an in-process DaemonServer serving fig17-style
 * measurement legs to one client thread over the framing protocol.
 */

#ifndef PFM_PERFBENCH_FARM_H
#define PFM_PERFBENCH_FARM_H

#include "bench.h"

namespace perfbench {

/** Run the farm and add its metrics (end-to-end or per-layer) to @p report. */
void runFarm(const Args& opt, Report& report);

} // namespace perfbench

#endif // PFM_PERFBENCH_FARM_H
