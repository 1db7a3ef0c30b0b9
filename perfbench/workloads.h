// The benchmark's workloads. Each builds its world through the public APIs
// of apps, sim and skybridge, checks its outputs, and fills the report with
// every end-to-end and per-layer metric (zero where a layer does no work).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/bench.h"

namespace perfbench {

sb::Status RunYcsbA(const Options& options, Report& report);
sb::Status RunKvOpen(const Options& options, Report& report);
sb::Status RunMesh(const Options& options, Report& report);

// The fs, db and YCSB per-layer metrics of a workload that never touches
// the storage stack: all zero.
void ReportStorageIdle(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
