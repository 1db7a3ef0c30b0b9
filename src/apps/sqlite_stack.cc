#include "src/apps/sqlite_stack.h"

#include <algorithm>
#include <cstring>

#include "src/base/logging.h"

#include "src/base/units.h"

namespace apps {

std::string_view StackTransportName(StackTransport transport) {
  switch (transport) {
    case StackTransport::kIpcStServer:
      return "ST-Server";
    case StackTransport::kIpcMtServer:
      return "MT-Server";
    case StackTransport::kSkyBridge:
      return "SkyBridge";
  }
  return "?";
}

sb::StatusOr<std::unique_ptr<SqliteStack>> SqliteStack::Create(const SqliteStackConfig& config) {
  std::unique_ptr<SqliteStack> stack(new SqliteStack());
  SB_RETURN_IF_ERROR(stack->Setup(config));
  return stack;
}

sb::StatusOr<mk::Message> SqliteStack::CallSky(mk::Thread* thread, skybridge::ServerId sid,
                                               const mk::Message& msg) {
  // Large requests: construct the wire message directly in the connection's
  // shared-buffer slice so the bridge skips the charged request copy.
  const std::span<const uint8_t> p = msg.payload();
  if (p.size() > kernel_->profile().register_msg_capacity) {
    auto buf = sky_->AcquireSendBuffer(thread, sid);
    if (buf.ok() && p.size() <= buf->size()) {
      std::memcpy(buf->data(), p.data(), p.size());
      return sky_->DirectServerCallInPlace(thread, sid, msg.tag, p.size());
    }
  }
  return sky_->DirectServerCall(thread, sid, msg);
}

sb::StatusOr<mk::Message> SqliteStack::CallBdevFromFs(const mk::Message& msg) {
  if (setup_mode_) {
    return setup_bdev_(msg);  // Direct, uncharged device access.
  }
  mk::Thread* fs_thread = fs_threads_[static_cast<size_t>(current_fs_core_)];
  if (config_.transport == StackTransport::kSkyBridge) {
    return CallSky(fs_thread, bdev_sid_, msg);
  }
  return kernel_->IpcCall(fs_thread, bdev_cap_, msg);
}

sb::StatusOr<mk::Message> SqliteStack::CallFs(const mk::Message& msg) {
  if (setup_mode_) {
    const int prev = current_fs_core_;
    current_fs_core_ = 0;
    mk::CallEnv env{*kernel_, machine_->core(0), *fs_proc_, msg};
    mk::Message reply = fsys::MakeFsHandler(fs_.get(), fs_cache_heap_)(env);
    current_fs_core_ = prev;
    return reply;
  }
  mk::Thread* thread = client_threads_[static_cast<size_t>(current_client_thread_)];
  if (config_.transport == StackTransport::kSkyBridge) {
    return CallSky(thread, fs_sid_, msg);
  }
  return kernel_->IpcCall(thread, fs_cap_, msg);
}

sb::Status SqliteStack::Setup(const SqliteStackConfig& config) {
  config_ = config;
  hw::MachineConfig mc;
  mc.num_cores = config.num_cores;
  mc.ram_bytes = 4 * sb::kGiB;
  machine_ = std::make_unique<hw::Machine>(mc);

  mk::KernelOptions options;
  options.boot_rootkernel = config.boot_rootkernel;
  options.process_heap_bytes = 32 * sb::kMiB;
  kernel_ = std::make_unique<mk::Kernel>(*machine_, mk::ProfileFor(config.kernel), options);
  SB_RETURN_IF_ERROR(kernel_->Boot());
  if (config.boot_rootkernel && config.transport == StackTransport::kSkyBridge) {
    // Every client thread is its own connection and the slice allocator
    // refuses to alias slices, so provision one per thread.
    skybridge::SkyBridgeConfig sky_config;
    sky_config.buffer_slices =
        std::max<uint64_t>(sky_config.buffer_slices,
                           static_cast<uint64_t>(config.num_client_threads));
    sky_ = std::make_unique<skybridge::SkyBridge>(*kernel_, sky_config);
  } else if (config.transport == StackTransport::kSkyBridge) {
    return sb::InvalidArgument("SkyBridge transport requires the Rootkernel");
  }

  SB_ASSIGN_OR_RETURN(client_, kernel_->CreateProcess("sqlite-client"));
  SB_ASSIGN_OR_RETURN(fs_proc_, kernel_->CreateProcess("xv6fs-server"));
  SB_ASSIGN_OR_RETURN(bdev_proc_, kernel_->CreateProcess("ramdisk-server"));

  SB_ASSIGN_OR_RETURN(client_db_heap_, client_->AllocHeap(4 * sb::kMiB, 4096));
  SB_ASSIGN_OR_RETURN(fs_cache_heap_, fs_proc_->AllocHeap(1 * sb::kMiB, 4096));
  SB_ASSIGN_OR_RETURN(bdev_heap_,
                      bdev_proc_->AllocHeap(
                          static_cast<uint64_t>(config.disk_blocks) * fsys::kBlockSize, 4096));

  for (int t = 0; t < config.num_client_threads; ++t) {
    client_threads_.push_back(client_->AddThread(t % config.num_cores));
  }
  for (int c = 0; c < config.num_cores; ++c) {
    fs_threads_.push_back(fs_proc_->AddThread(c));
  }

  ramdisk_ = std::make_unique<fsys::RamDisk>(config.disk_blocks, bdev_proc_, bdev_heap_);
  setup_bdev_ = fsys::DirectBlockTransport(ramdisk_.get());
  fs_ = std::make_unique<fsys::Xv6Fs>(
      [this](const mk::Message& msg) { return CallBdevFromFs(msg); },
      fsys::Xv6Fs::Config{config.disk_blocks, 512, fsys::kLogCapacity + 1, 64});

  // Wire the servers.
  if (config.transport == StackTransport::kSkyBridge) {
    auto fs_handler = [this](mk::CallEnv& env) -> mk::Message {
      const int prev = current_fs_core_;
      current_fs_core_ = env.core.id();
      mk::Message reply = fsys::MakeFsHandler(fs_.get(), fs_cache_heap_)(env);
      current_fs_core_ = prev;
      return reply;
    };
    SB_ASSIGN_OR_RETURN(bdev_sid_, sky_->RegisterServer(bdev_proc_, 16, ramdisk_->MakeHandler()));
    SB_ASSIGN_OR_RETURN(fs_sid_, sky_->RegisterServer(fs_proc_, 16, fs_handler));
    SB_RETURN_IF_ERROR(sky_->RegisterClient(client_, fs_sid_));
    SB_RETURN_IF_ERROR(sky_->RegisterClient(fs_proc_, bdev_sid_));
  } else {
    std::vector<int> fs_cores;
    std::vector<int> bdev_cores;
    if (config.transport == StackTransport::kIpcStServer) {
      // One worker thread each, pinned away from the clients.
      fs_cores = {config.num_cores - 2};
      bdev_cores = {config.num_cores - 1};
    } else {
      for (int c = 0; c < config.num_cores; ++c) {
        fs_cores.push_back(c);
        bdev_cores.push_back(c);
      }
    }
    auto fs_handler = [this](mk::CallEnv& env) -> mk::Message {
      const int prev = current_fs_core_;
      current_fs_core_ = env.core.id();
      mk::Message reply = fsys::MakeFsHandler(fs_.get(), fs_cache_heap_)(env);
      current_fs_core_ = prev;
      return reply;
    };
    SB_ASSIGN_OR_RETURN(mk::Endpoint * bdev_ep,
                        kernel_->CreateEndpoint(bdev_proc_, ramdisk_->MakeHandler(), bdev_cores));
    SB_ASSIGN_OR_RETURN(mk::Endpoint * fs_ep,
                        kernel_->CreateEndpoint(fs_proc_, fs_handler, fs_cores));
    SB_ASSIGN_OR_RETURN(fs_cap_, kernel_->GrantEndpointCap(client_, fs_ep->id(), mk::kRightCall));
    SB_ASSIGN_OR_RETURN(bdev_cap_,
                        kernel_->GrantEndpointCap(fs_proc_, bdev_ep->id(), mk::kRightCall));
  }

  // Format, mount, create the database + table (all in setup mode: direct
  // uncharged transports, like the paper's untimed preparation phase).
  setup_mode_ = true;
  SB_RETURN_IF_ERROR(fs_->Mkfs());
  SB_RETURN_IF_ERROR(fs_->Mount());
  fs_client_ = std::make_unique<fsys::FsClient>(
      [this](const mk::Message& msg) { return CallFs(msg); });
  SB_ASSIGN_OR_RETURN(db_, minisql::Database::Open(fs_client_.get(), "/ycsb.db", config.db));
  SB_ASSIGN_OR_RETURN(table_, db_->CreateTable("usertable"));

  if (config.preload_records > 0) {
    YcsbConfig wl;
    wl.record_count = config.preload_records;
    YcsbWorkload workload(wl);
    for (uint64_t key = 0; key < config.preload_records; ++key) {
      SB_RETURN_IF_ERROR(table_->Insert(key, workload.ValueFor(key)));
    }
  }
  setup_mode_ = false;

  // Dispatch the client on its cores.
  for (int c = 0; c < std::min(config.num_client_threads, config.num_cores); ++c) {
    SB_RETURN_IF_ERROR(kernel_->ContextSwitchTo(machine_->core(c), client_));
  }
  return sb::OkStatus();
}

uint64_t SqliteStack::AcquireDbLock(int t) {
  mk::Thread* thread = client_threads_[static_cast<size_t>(t)];
  hw::Core& core = machine_->core(thread->core_id());
  const uint64_t arrival = core.cycles();
  const uint64_t start = db_lock_.Acquire(arrival);
  core.SyncClockTo(start);
  if (start > arrival) {
    // Contended: the thread blocked and was woken through the kernel
    // scheduler (sleep syscall, wakeup IPI, dispatch); convoying and
    // cache-line bouncing scale with the number of waiters.
    core.AdvanceCycles(config_.blocked_wakeup_cycles_per_waiter *
                       static_cast<uint64_t>(config_.num_client_threads - 1));
  }
  if (db_lock_last_core_ != -1 && db_lock_last_core_ != thread->core_id()) {
    // Lock and working-set migration between cores.
    core.AdvanceCycles(config_.lock_migration_cycles);
  }
  db_lock_last_core_ = thread->core_id();
  return core.cycles();
}

sb::Status SqliteStack::Insert(int t, uint64_t key, std::span<const uint8_t> value) {
  mk::Thread* thread = client_threads_[static_cast<size_t>(t)];
  hw::Core& core = machine_->core(thread->core_id());
  AcquireDbLock(t);
  current_client_thread_ = t;
  db_->SetChargedContext(&core, client_db_heap_);
  const sb::Status status = table_->Insert(key, value);
  db_->SetChargedContext(nullptr, 0);
  db_lock_.Release(core.cycles());
  return status;
}

sb::Status SqliteStack::Update(int t, uint64_t key, std::span<const uint8_t> value) {
  mk::Thread* thread = client_threads_[static_cast<size_t>(t)];
  hw::Core& core = machine_->core(thread->core_id());
  AcquireDbLock(t);
  current_client_thread_ = t;
  db_->SetChargedContext(&core, client_db_heap_);
  const sb::Status status = table_->Update(key, value);
  db_->SetChargedContext(nullptr, 0);
  db_lock_.Release(core.cycles());
  return status;
}

sb::StatusOr<std::vector<uint8_t>> SqliteStack::Query(int t, uint64_t key) {
  mk::Thread* thread = client_threads_[static_cast<size_t>(t)];
  hw::Core& core = machine_->core(thread->core_id());
  AcquireDbLock(t);
  current_client_thread_ = t;
  db_->SetChargedContext(&core, client_db_heap_);
  auto result = table_->Query(key);
  db_->SetChargedContext(nullptr, 0);
  db_lock_.Release(core.cycles());
  return result;
}

sb::Status SqliteStack::Delete(int t, uint64_t key) {
  mk::Thread* thread = client_threads_[static_cast<size_t>(t)];
  hw::Core& core = machine_->core(thread->core_id());
  AcquireDbLock(t);
  current_client_thread_ = t;
  db_->SetChargedContext(&core, client_db_heap_);
  const sb::Status status = table_->Delete(key);
  db_->SetChargedContext(nullptr, 0);
  db_lock_.Release(core.cycles());
  return status;
}

sb::Status SqliteStack::RunYcsbOp(int t, const YcsbOp& op, const YcsbWorkload& workload) {
  switch (op.type) {
    case YcsbOpType::kRead: {
      auto result = Query(t, op.key);
      if (!result.ok() && result.status().code() != sb::ErrorCode::kNotFound) {
        return result.status();
      }
      return sb::OkStatus();
    }
    case YcsbOpType::kUpdate:
      return Update(t, op.key, workload.ValueFor(op.key));
    case YcsbOpType::kInsert:
      return Insert(t, op.key, workload.ValueFor(op.key));
  }
  return sb::InvalidArgument("bad op");
}

}  // namespace apps
