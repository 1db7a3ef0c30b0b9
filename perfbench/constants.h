// Frozen workload constants of the repository benchmark.
//
// Every load figure is absolute: a faster program is offered the same load
// as a slower one, so a gain shows up as lower latency or a higher
// max-rate-under-SLO instead of being normalized away. Rates are aggregate
// offered load in operations per 1000 simulated cycles (the 4 GHz model:
// 1 op/kcycle = 4,000,000 ops per simulated second). Changing any number
// here changes the benchmark and needs a fresh baseline.

#ifndef PERFBENCH_CONSTANTS_H_
#define PERFBENCH_CONSTANTS_H_

#include <cstddef>
#include <cstdint>

namespace perfbench {

// Seed kept out of tuning: claims made with the benchmark are re-checked on
// it (`--seed 90210`), never on a seed used while writing the change.
inline constexpr uint64_t kHeldOutSeed = 90210;

// World set-ups per run; setup_s is their median. The KV world boots in
// milliseconds, so it takes more samples.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kKvSetupRepeats = 9;

// ---- ycsb_a: minisql -> xv6fs -> ramdisk over SkyBridge, seL4 profile ----
inline constexpr uint64_t kYcsbRecords = 1000;  // > 96-row cache, > 48 1-KiB pages.
inline constexpr size_t kYcsbRowCache = 96;
inline constexpr size_t kYcsbPagerPages = 48;
inline constexpr int kYcsbWarmOps = 500;
inline constexpr int kYcsbMeasuredOps = 4000;
inline constexpr int kYcsbHostRoundOps = 200;
inline constexpr double kYcsbLadder[] = {0.04, 0.06, 0.08, 0.09, 0.10, 0.11, 0.12, 0.14, 0.18};
inline constexpr double kYcsbReference = 0.06;
inline constexpr uint64_t kYcsbP99LimitCycles = 100000;
inline constexpr uint32_t kYcsbLadderEvents = 10000;

// ---- kv_open: client -> encrypt -> kv (XTEA), open-loop Poisson gets ----
inline constexpr uint64_t kKvKeys = 1024;
inline constexpr size_t kKvValueBytes = 64;
inline constexpr int kKvWarmGets = 512;
inline constexpr int kKvServiceGets = 2000;
inline constexpr double kKvLadder[] = {0.06, 0.09, 0.12, 0.15, 0.18, 0.21, 0.24, 0.27, 0.30,
                                       0.36, 0.44};
inline constexpr double kKvReference = 0.15;
inline constexpr uint64_t kKvP99LimitCycles = 40000;
inline constexpr uint32_t kKvLadderEvents = 40000;

// ---- mesh: 64 servers x 1024 clients x 16 bindings, 4 caller cores ----
inline constexpr int kMeshServers = 64;
inline constexpr int kMeshClients = 1024;
inline constexpr int kMeshServersPerClient = 16;
inline constexpr int kMeshCallerCores = 4;
inline constexpr size_t kMeshImagePages = 16;
inline constexpr size_t kMeshWorkingSet = 32;
inline constexpr int kMeshWarmCalls = 4096;
inline constexpr int kMeshMeasuredCalls = 16384;
inline constexpr int kMeshHostRoundCalls = 8192;
inline constexpr double kMeshLadder[] = {0.3, 0.6, 0.75, 0.9, 1.05, 1.2, 1.35, 1.6, 2.0};
inline constexpr double kMeshReference = 0.6;
inline constexpr uint64_t kMeshP99LimitCycles = 30000;
inline constexpr uint32_t kMeshLadderEvents = 32768;

// Burst size after which the open-loop generator flushes a batched mix.
inline constexpr uint32_t kBatchDepth = 16;

}  // namespace perfbench

#endif  // PERFBENCH_CONSTANTS_H_
