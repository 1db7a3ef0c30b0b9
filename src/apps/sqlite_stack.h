// The Section 6.5 application stack:
//
//   client threads + minisql  --IPC/SkyBridge-->  xv6fs  --IPC/SkyBridge-->  RAM disk
//
// in three processes on the simulated 8-core machine, with the paper's three
// server configurations:
//
//   kIpcStServer  one worker thread per server on its own core: every client
//                 request is a costly cross-core IPC (IPIs).
//   kIpcMtServer  worker threads pinned to every core: clients always reach
//                 a local server thread.
//   kSkyBridge    direct server calls on the caller's core, kernel-less.
//
// One Database instance is shared by all client threads (SQLite-style
// serialization), and the file system runs behind its big lock — both locks
// are FIFO resources in virtual time, which is what produces the paper's
// poor YCSB scalability (Figures 9-11).

#ifndef SRC_APPS_SQLITE_STACK_H_
#define SRC_APPS_SQLITE_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/apps/ycsb.h"
#include "src/db/minisql.h"
#include "src/fs/block_device.h"
#include "src/fs/fs_rpc.h"
#include "src/fs/xv6fs.h"
#include "src/mk/kernel.h"
#include "src/skybridge/skybridge.h"

namespace apps {

enum class StackTransport : uint8_t { kIpcStServer, kIpcMtServer, kSkyBridge };

std::string_view StackTransportName(StackTransport transport);

struct SqliteStackConfig {
  mk::KernelKind kernel = mk::KernelKind::kSel4;
  StackTransport transport = StackTransport::kIpcMtServer;
  bool boot_rootkernel = true;  // false => the "Native" row of Table 5.
  int num_client_threads = 1;
  uint64_t preload_records = 0;  // Rows inserted (uncharged) before runs.
  minisql::Database::Config db;
};

class SqliteStack {
 public:
  static sb::StatusOr<std::unique_ptr<SqliteStack>> Create(const SqliteStackConfig& config);

  // ---- Charged per-thread operations (run on client thread t's core) ----
  sb::Status Insert(int t, uint64_t key, std::span<const uint8_t> value);
  sb::Status Update(int t, uint64_t key, std::span<const uint8_t> value);
  sb::StatusOr<std::vector<uint8_t>> Query(int t, uint64_t key);
  sb::Status Delete(int t, uint64_t key);
  sb::Status RunYcsbOp(int t, const YcsbOp& op, const YcsbWorkload& workload);

  // ---- Accessors ----
  hw::Machine& machine() { return *machine_; }
  mk::Kernel& kernel() { return *kernel_; }
  skybridge::SkyBridge* sky() { return sky_.get(); }
  minisql::Database& db() { return *db_; }
  minisql::Table& table() { return *table_; }
  fsys::Xv6Fs& fs() { return *fs_; }
  fsys::RamDisk& ramdisk() { return *ramdisk_; }
  mk::Thread* client_thread(int t) { return client_threads_[static_cast<size_t>(t)]; }
  sim::FifoResource& db_lock() { return db_lock_; }
  const SqliteStackConfig& config() const { return config_; }

 private:
  SqliteStack() = default;

  sb::Status Setup(const SqliteStackConfig& config);
  sb::StatusOr<mk::Message> CallFs(const mk::Message& msg);
  sb::StatusOr<mk::Message> CallBdevFromFs(const mk::Message& msg);
  // SkyBridge call that stages large requests directly in the connection's
  // shared-buffer slice (in-place API) so the bridge skips the request copy.
  sb::StatusOr<mk::Message> CallSky(mk::Thread* thread, skybridge::ServerId sid,
                                    const mk::Message& msg);

  // Serializes a client thread on the DB lock and charges lock migration.
  uint64_t AcquireDbLock(int t);

  SqliteStackConfig config_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<skybridge::SkyBridge> sky_;

  mk::Process* client_ = nullptr;
  mk::Process* fs_proc_ = nullptr;
  mk::Process* bdev_proc_ = nullptr;
  std::vector<mk::Thread*> client_threads_;
  std::vector<mk::Thread*> fs_threads_;  // One per core (server-side calls).

  std::unique_ptr<fsys::RamDisk> ramdisk_;
  fsys::BlockTransport setup_bdev_;  // Serves the fs while setup_mode_.
  std::unique_ptr<fsys::Xv6Fs> fs_;
  std::unique_ptr<fsys::FsClient> fs_client_;
  std::unique_ptr<minisql::Database> db_;
  minisql::Table* table_ = nullptr;

  // IPC plumbing.
  mk::CapSlot fs_cap_ = 0;
  mk::CapSlot bdev_cap_ = 0;
  skybridge::ServerId fs_sid_ = 0;
  skybridge::ServerId bdev_sid_ = 0;

  // Dynamic call context (the simulator is single-threaded).
  int current_client_thread_ = 0;
  int current_fs_core_ = 0;
  bool setup_mode_ = true;  // Direct, uncharged transports during setup.

  sim::FifoResource db_lock_;
  int db_lock_last_core_ = -1;
  hw::Gva client_db_heap_ = 0;
  hw::Gva fs_cache_heap_ = 0;
  hw::Gva bdev_heap_ = 0;
};

}  // namespace apps

#endif  // SRC_APPS_SQLITE_STACK_H_
