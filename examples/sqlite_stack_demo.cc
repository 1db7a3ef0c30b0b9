// The Section 6.5 storage stack as a runnable example: minisql (SQLite
// stand-in) -> xv6fs -> RAM disk in three processes, connected by SkyBridge.
// Runs a small CRUD session and prints what moved through the stack.
//
// Build & run:  ./build/examples/sqlite_stack_demo

#include <cstdio>
#include <string>

#include "src/apps/sqlite_stack.h"

int main() {
  apps::SqliteStackConfig config;
  config.transport = apps::StackTransport::kSkyBridge;
  config.preload_records = 100;
  auto stack = apps::SqliteStack::Create(config);
  if (!stack.ok()) {
    std::fprintf(stderr, "stack setup failed: %s\n", stack.status().ToString().c_str());
    return 1;
  }
  std::printf("stack up: minisql --SkyBridge--> xv6fs --SkyBridge--> ramdisk\n");
  std::printf("preloaded %llu rows into 'usertable'\n\n",
              static_cast<unsigned long long>(config.preload_records));

  // A little CRUD session (thread 0, charged on core 0).
  std::vector<uint8_t> row(100, 0x42);
  SB_CHECK((*stack)->Insert(0, 1000, row).ok());
  std::printf("INSERT key=1000        ok\n");
  auto fetched = (*stack)->Query(0, 1000);
  std::printf("SELECT key=1000        -> %zu bytes\n", fetched->size());
  row[0] = 0x43;
  SB_CHECK((*stack)->Update(0, 1000, row).ok());
  std::printf("UPDATE key=1000        ok\n");
  SB_CHECK((*stack)->Delete(0, 1000).ok());
  std::printf("DELETE key=1000        ok\n");
  std::printf("SELECT key=1000        -> %s\n\n",
              (*stack)->Query(0, 1000).ok() ? "found (?!)" : "not found (deleted)");

  // What the stack did underneath.
  const auto& db_stats = (*stack)->db().stats();
  const auto& fs_stats = (*stack)->fs().stats();
  std::printf("minisql:  %llu inserts, %llu updates, %llu queries (%llu row-cache hits)\n",
              static_cast<unsigned long long>(db_stats.inserts),
              static_cast<unsigned long long>(db_stats.updates),
              static_cast<unsigned long long>(db_stats.queries),
              static_cast<unsigned long long>(db_stats.row_cache_hits));
  std::printf("xv6fs:    %llu transactions, %llu block reads, %llu block writes\n",
              static_cast<unsigned long long>(fs_stats.transactions),
              static_cast<unsigned long long>(fs_stats.block_reads),
              static_cast<unsigned long long>(fs_stats.block_writes));
  std::printf("ramdisk:  %llu reads, %llu writes\n",
              static_cast<unsigned long long>((*stack)->ramdisk().reads()),
              static_cast<unsigned long long>((*stack)->ramdisk().writes()));
  const sb::telemetry::Registry& reg = (*stack)->machine().telemetry();
  std::printf("SkyBridge: %llu direct calls, %llu long (shared-buffer) calls\n",
              static_cast<unsigned long long>(reg.Value("skybridge.ipc.direct_calls")),
              static_cast<unsigned long long>(reg.Value("skybridge.ipc.long_calls")));
  std::printf("VM exits while serving: %llu\n",
              static_cast<unsigned long long>(reg.Value("hw.vmexit.total")));
  return 0;
}
