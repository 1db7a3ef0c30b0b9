// Staged registration pipeline tests (DESIGN.md section 17): the
// content-hashed rewrite cache (fork determinism, cross-backend isolation,
// bounded eviction), dirty-page-only invalidation on UpdateProcessCode,
// rewrite-on-first-execute in lazy mode, snapshot/restore semantics, and the
// kFaultExecScan recovery contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/faultpoint.h"
#include "src/skybridge/skybridge.h"
#include "src/vmm/rootkernel.h"
#include "src/x86/rewrite_cache.h"
#include "src/x86/scanner.h"

namespace skybridge {

// Reads SkyBridge's registration state and reaches its exec-fault handler.
class SkyBridgeTestPeer {
 public:
  // The pristine buffer a prepared process's RegState holds; null when the
  // process was never prepared.
  static const std::vector<uint8_t>* PristineBuffer(SkyBridge& sky, const mk::Process* p) {
    auto it = sky.reg_states_.find(p);
    return it == sky.reg_states_.end() ? nullptr : it->second.pristine_image.get();
  }
  // Interns `image` under a caller-chosen hash (a forged collision).
  static SkyBridge::SharedImage Intern(SkyBridge& sky, std::vector<uint8_t> image,
                                       uint64_t hash) {
    return sky.InternPristine(std::move(image), hash);
  }
  // Intern-table entries, expired ones included.
  static size_t InternEntries(SkyBridge& sky) {
    return sky.pristine_images_.size();
  }
  // The EPT of the client -> server binding.
  static uint64_t BindingEpt(SkyBridge& sky, const mk::Process* client, ServerId sid) {
    return sky.routes_.Find(client, sid)->ept_id;
  }
  // The exec-violation handler itself, as the Rootkernel reaches it (the
  // kernel's RaiseExecFault folds every failure into Unavailable).
  static sb::Status HandleExecFault(SkyBridge& sky, hw::Core& core, hw::Gpa gpa) {
    return sky.HandleExecFault(core, gpa);
  }
};

namespace {

using mk::CallEnv;
using mk::Handler;
using mk::Message;
using sb::kGiB;
using sb::kPageSize;

Handler EchoHandler() {
  return [](CallEnv& env) { return env.request; };
}

// A `pages`-page NOP sled ending in RET. Every byte is a valid one-byte
// instruction, so the linear scan decodes cleanly at any offset.
std::vector<uint8_t> NopImage(size_t pages) {
  std::vector<uint8_t> image(pages * kPageSize, 0x90);
  image.back() = 0xc3;
  return image;
}

// Plants `mov eax, imm32` whose immediate embeds the 3-byte gate pattern —
// the SeCage-style overlapping pattern that forces a window relocation (and
// therefore snippets in the rewrite sub-window) rather than a NOP-out.
void PlantEmbedded(std::vector<uint8_t>& image, size_t offset, const uint8_t pattern[3]) {
  image[offset] = 0xb8;
  image[offset + 1] = pattern[0];
  image[offset + 2] = pattern[1];
  image[offset + 3] = pattern[2];
  image[offset + 4] = 0x00;
}

class RegistrationPipelineTest : public ::testing::Test {
 protected:
  void Boot(SkyBridgeConfig config = {}) {
    sky_.reset();
    kernel_.reset();
    machine_.reset();
    hw::MachineConfig mc;
    mc.num_cores = 4;
    mc.ram_bytes = 4 * kGiB;
    machine_ = std::make_unique<hw::Machine>(mc);
    kernel_ = std::make_unique<mk::Kernel>(*machine_, mk::Sel4Profile());
    ASSERT_TRUE(kernel_->Boot().ok());
    sky_ = std::make_unique<SkyBridge>(*kernel_, config);
  }

  // True iff the EPT allows execution of `process` code page `page`.
  bool PageExecutable(mk::Process* process, size_t page) {
    const hw::GuestWalk walk = process->address_space().WalkVa(mk::kCodeVa);
    SB_CHECK(walk.ok);
    hw::Ept* ept = kernel_->rootkernel()->ept(process->ept_id());
    SB_CHECK(ept != nullptr);
    return ept->Walk(walk.gpa + page * kPageSize, hw::kEptExec).ok;
  }

  // `len` bytes of the process's code window, read straight from guest
  // memory (not through code_image()).
  std::vector<uint8_t> GuestCode(mk::Process* process, size_t len = mk::kCodeSize) {
    const hw::GuestWalk walk = process->address_space().WalkVa(mk::kCodeVa);
    SB_CHECK(walk.ok);
    std::vector<uint8_t> bytes(len);
    machine_->mem().Read(walk.gpa, bytes);
    return bytes;
  }

  // code_image() is exactly the `size` guest bytes at kCodeVa.
  void ExpectImageIsGuestMemory(mk::Process* process, size_t size, const char* when) {
    const std::vector<uint8_t> image = process->code_image();
    EXPECT_EQ(image.size(), size) << when;
    EXPECT_EQ(image, GuestCode(process, size)) << when;
  }

  // Every gate pattern (VMFUNC or WRPKRU) in any mapped snippet sub-window
  // page of the process, as "window page: offset" strings.
  std::vector<std::string> WindowGateBytes(mk::Process* process) {
    std::vector<std::string> found;
    for (size_t w = 0; w < 32; ++w) {
      const hw::GuestWalk walk =
          process->address_space().WalkVa(mk::kRewritePageVa + w * kPageSize);
      if (!walk.ok) {
        continue;
      }
      std::vector<uint8_t> page(kPageSize);
      machine_->mem().Read(walk.gpa, page);
      for (const uint8_t* pattern : {x86::kVmfuncBytes, x86::kWrpkruBytes}) {
        x86::ScanOptions options;
        options.pattern = pattern;
        for (size_t off : x86::FindVmfuncBytes(page, options)) {
          found.push_back(std::to_string(w) + ": " + std::to_string(off));
        }
      }
    }
    return found;
  }

  // The guest bytes of every mapped snippet sub-window page, in VA order.
  std::vector<std::vector<uint8_t>> WindowPages(mk::Process* process) {
    std::vector<std::vector<uint8_t>> pages;
    for (size_t w = 0; w < 32; ++w) {
      const hw::GuestWalk walk =
          process->address_space().WalkVa(mk::kRewritePageVa + w * kPageSize);
      if (walk.ok) {
        pages.emplace_back(kPageSize);
        machine_->mem().Read(walk.gpa, pages.back());
      }
    }
    return pages;
  }

  // `count` clones of `image`, all created first (so they share their
  // pristine pages), then each registered eagerly as a client of `sid`.
  std::vector<mk::Process*> RegisterClones(const std::vector<uint8_t>& image, int count,
                                           ServerId sid) {
    std::vector<mk::Process*> clones;
    for (int i = 0; i < count; ++i) {
      clones.push_back(
          kernel_->CreateProcessWithImage("clone" + std::to_string(i), image).value());
    }
    for (mk::Process* clone : clones) {
      SB_CHECK(sky_->RegisterClient(clone, sid).ok());
    }
    return clones;
  }

  // A counter or gauge on this world's telemetry registry.
  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
};

// Satellite: UpdateProcessCode must invalidate (and rescan) only the pages
// whose content hash actually changed. This pins the rescan count — a
// regression to whole-image invalidation fails the exact-delta checks.
TEST_F(RegistrationPipelineTest, UpdateProcessCodeRescansOnlyDirtyPages) {
  Boot();
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 3 * kPageSize + 2048, x86::kVmfuncBytes);
  auto* server = kernel_->CreateProcessWithImage("server", image).value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  EXPECT_EQ(Metric("skybridge.registration.pages_rescanned"), 4u);
  EXPECT_EQ(Metric("skybridge.registration.cache_misses"), 4u);
  EXPECT_EQ(Metric("skybridge.registration.cache_hits"), 0u);
  EXPECT_TRUE(x86::FindVmfuncBytes(server->code_image()).empty());

  // Dirty exactly one byte, mid-page so no neighbour's +-64 B hash context
  // sees it. Pages 0, 1 and 3 replay from the cache; only page 2 rescans.
  std::vector<uint8_t> updated = image;
  updated[2 * kPageSize + 2048] = 0xf8;  // NOP -> CLC, still one decodable byte.
  ASSERT_TRUE(sky_->UpdateProcessCode(server, updated).ok());
  EXPECT_EQ(Metric("skybridge.registration.pages_rescanned"), 5u);
  EXPECT_EQ(Metric("skybridge.registration.cache_misses"), 5u);
  EXPECT_EQ(Metric("skybridge.registration.cache_hits"), 3u);
  EXPECT_TRUE(x86::FindVmfuncBytes(server->code_image()).empty());
  EXPECT_TRUE(server->code_rewritten());

  // The updated image still serves calls.
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid, Message(7)).ok());
}

// A 16-page template whose rewrite touches two pages and fills their two
// snippet sub-window pages.
std::vector<uint8_t> CloneTemplate() {
  std::vector<uint8_t> image = NopImage(16);
  for (size_t page = 0; page < 16; ++page) {
    image[page * kPageSize] = static_cast<uint8_t>(0xf8 + page % 2);  // CLC or STC.
    image[page * kPageSize + 1 + page] = 0xfc;                        // CLD.
  }
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 9 * kPageSize + 100, x86::kVmfuncBytes);
  return image;
}

// Clones of one template hold one host page per distinct code or snippet
// page (HostPhysMem::WriteShared), not one per clone.
TEST_F(RegistrationPipelineTest, EagerClonesAddOneHostPagePerDistinctCodePage) {
  Boot();
  constexpr int kClones = 64;
  auto* server = kernel_->CreateProcessWithImage("server", NopImage(2)).value();
  const ServerId sid =
      sky_->RegisterServer(server, kClones, EchoHandler(), CrossingBackendKind::kEptp).value();
  const hw::HostPhysMem& mem = machine_->mem();
  const size_t frames_before = mem.resident_frames();
  const size_t pages_before = mem.host_pages();
  const std::vector<mk::Process*> clones = RegisterClones(CloneTemplate(), kClones, sid);

  // The distinct pages one clone holds: its 16 code pages and its windows.
  const std::vector<uint8_t> code = GuestCode(clones[0]);
  std::set<std::vector<uint8_t>> distinct;
  for (size_t off = 0; off < code.size(); off += kPageSize) {
    distinct.emplace(code.begin() + off, code.begin() + off + kPageSize);
  }
  const std::vector<std::vector<uint8_t>> windows = WindowPages(clones[0]);
  ASSERT_EQ(windows.size(), 2u);
  distinct.insert(windows.begin(), windows.end());
  ASSERT_EQ(distinct.size(), 18u);
  // Every other frame the clones gained (page tables, identity frames,
  // buffer regions) is private, so the frames that did not get a host page
  // of their own are the shared code and window frames less their pages.
  const size_t shared_frames = kClones * (code.size() / kPageSize + windows.size());
  const size_t saved =
      (mem.resident_frames() - frames_before) - (mem.host_pages() - pages_before);
  EXPECT_LE(shared_frames, saved + distinct.size());
}

// Copy-on-write at guest level: rewriting one clone's code touches no host
// page its siblings still share.
TEST_F(RegistrationPipelineTest, UpdatingOneCloneLeavesEverySiblingUnchanged) {
  Boot();
  constexpr int kClones = 64;
  constexpr int kUpdated = 17;
  auto* server = kernel_->CreateProcessWithImage("server", NopImage(2)).value();
  const ServerId sid =
      sky_->RegisterServer(server, kClones, EchoHandler(), CrossingBackendKind::kEptp).value();
  const std::vector<uint8_t> image = CloneTemplate();
  const std::vector<mk::Process*> clones = RegisterClones(image, kClones, sid);
  std::vector<std::vector<uint8_t>> codes;
  std::vector<std::vector<std::vector<uint8_t>>> windows;
  std::vector<SkyBridge::RegistrationSnapshot> snapshots;
  for (mk::Process* clone : clones) {
    codes.push_back(clone->code_image());
    windows.push_back(WindowPages(clone));
    snapshots.push_back(sky_->SnapshotRegistration(clone).value());
  }

  // A second embedded gate on page 1 changes that page and its window page.
  std::vector<uint8_t> updated = image;
  PlantEmbedded(updated, kPageSize + 512, x86::kVmfuncBytes);
  ASSERT_TRUE(sky_->UpdateProcessCode(clones[kUpdated], updated).ok());
  EXPECT_NE(clones[kUpdated]->code_image(), codes[kUpdated]);
  EXPECT_NE(WindowPages(clones[kUpdated]), windows[kUpdated]);

  for (int i = 0; i < kClones; ++i) {
    if (i == kUpdated) {
      continue;
    }
    EXPECT_EQ(clones[i]->code_image(), codes[i]) << "clone " << i;
    EXPECT_EQ(WindowPages(clones[i]), windows[i]) << "clone " << i;
    const SkyBridge::RegistrationSnapshot now = sky_->SnapshotRegistration(clones[i]).value();
    EXPECT_EQ(now.code, snapshots[i].code) << "clone " << i;
    EXPECT_EQ(now.window_pages, snapshots[i].window_pages) << "clone " << i;
  }
}

// Forked workers carry byte-identical images: the second registration must
// replay every page from the cache and produce a byte-identical rewrite.
TEST_F(RegistrationPipelineTest, IdenticalForkReplaysFromTheCacheDeterministically) {
  Boot();
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 3 * kPageSize + 2048, x86::kVmfuncBytes);
  auto* a = kernel_->CreateProcessWithImage("fork-a", image).value();
  const ServerId sid_a =
      sky_->RegisterServer(a, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  EXPECT_EQ(Metric("skybridge.registration.cache_misses"), 4u);
  EXPECT_EQ(Metric("skybridge.registration.pages_rescanned"), 4u);

  auto* b = kernel_->CreateProcessWithImage("fork-b", image).value();
  const ServerId sid_b =
      sky_->RegisterServer(b, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  // 100% hit rate: no page of the fork rescanned.
  EXPECT_EQ(Metric("skybridge.registration.cache_misses"), 4u);
  EXPECT_EQ(Metric("skybridge.registration.cache_hits"), 4u);
  EXPECT_EQ(Metric("skybridge.registration.pages_rescanned"), 4u);
  // Replay is deterministic: both rewrites are byte-identical.
  EXPECT_EQ(a->code_image(), b->code_image());
  EXPECT_TRUE(x86::FindVmfuncBytes(b->code_image()).empty());

  // Both forks actually serve.
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid_a).ok());
  ASSERT_TRUE(sky_->RegisterClient(client, sid_b).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid_a, Message(1)).ok());
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid_b, Message(2)).ok());
}

// The pattern id is part of the cache key: an EPTP (VMFUNC) rewrite of a page
// must never satisfy the MPK (WRPKRU) pass over the same bytes — a cross-hit
// would leave a live WRPKRU in an MPK-bound image.
TEST_F(RegistrationPipelineTest, BackendPatternsNeverShareCacheEntries) {
  Boot();
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 2 * kPageSize + 2048, x86::kWrpkruBytes);
  x86::ScanOptions wrpkru;
  wrpkru.pattern = x86::kWrpkruBytes;

  // EPTP-bound server: only the VMFUNC pass runs, the WRPKRU stays.
  auto* a = kernel_->CreateProcessWithImage("eptp-server", image).value();
  ASSERT_TRUE(
      sky_->RegisterServer(a, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  EXPECT_EQ(Metric("skybridge.registration.cache_misses"), 4u);
  EXPECT_TRUE(x86::FindVmfuncBytes(a->code_image()).empty());
  EXPECT_FALSE(x86::FindVmfuncBytes(a->code_image(), wrpkru).empty());

  // MPK-bound fork of the same image: the VMFUNC pass replays from the
  // cache, but the WRPKRU pass must miss — same bytes, different pattern id.
  auto* b = kernel_->CreateProcessWithImage("mpk-server", image).value();
  ASSERT_TRUE(sky_->RegisterServer(b, 4, EchoHandler(), CrossingBackendKind::kMpk).ok());
  EXPECT_EQ(Metric("skybridge.registration.cache_hits"), 4u);    // The replayed VMFUNC pass.
  EXPECT_EQ(Metric("skybridge.registration.cache_misses"), 8u);  // The cold WRPKRU pass.
  EXPECT_TRUE(x86::FindVmfuncBytes(b->code_image()).empty());
  EXPECT_TRUE(x86::FindVmfuncBytes(b->code_image(), wrpkru).empty());
}

// Unit-level key semantics and the bounded LRU budget.
TEST(RewriteCacheUnit, KeyIsolationAndBoundedLruEviction) {
  x86::RewriteCache cache(2);
  x86::PageRewrite value;
  const std::vector<uint8_t> bytes = NopImage(1);
  const x86::RewriteCacheKey base{0x1234, 0, 0};
  cache.Insert(base, bytes, value);

  // Same bytes, different pattern or page index: a miss by construction.
  EXPECT_FALSE(cache.Lookup({0x1234, 0, 1}, bytes).has_value());
  EXPECT_FALSE(cache.Lookup({0x1234, 1, 0}, bytes).has_value());
  EXPECT_TRUE(cache.Lookup(base, bytes).has_value());

  // Over-budget insert evicts the least recently used entry: refresh `base`
  // after the second insert so the second key is the victim.
  cache.Insert({0x5678, 0, 0}, bytes, value);
  EXPECT_TRUE(cache.Lookup(base, bytes).has_value());
  cache.Insert({0x9abc, 0, 0}, bytes, value);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Lookup(base, bytes).has_value());
  EXPECT_FALSE(cache.Lookup({0x5678, 0, 0}, bytes).has_value());
  EXPECT_TRUE(cache.Lookup({0x9abc, 0, 0}, bytes).has_value());

  // Invalidation drops the entry and is counted.
  cache.Invalidate(base);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_FALSE(cache.Lookup(base, bytes).has_value());
}

// A hash collision must not replay another page's patches. Page A is clean
// (no patches); page B plants a VMFUNC and is forged onto A's key. The
// lookup with B's bytes misses, so B is rescanned and scrubbed — replaying
// A's empty rewrite would have left B's VMFUNC live.
TEST(RewriteCacheUnit, HitsAreConfirmedAgainstTheBytes) {
  const std::vector<uint8_t> a = NopImage(1);
  std::vector<uint8_t> b = a;
  PlantEmbedded(b, 2048, x86::kVmfuncBytes);
  x86::RewriteConfig rw;
  rw.rewrite_page_capacity = kPageSize;
  std::vector<size_t> starts;
  auto clean = x86::RewriteVmfuncPage(a, 0, rw, starts);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean->patches.empty());

  x86::RewriteCache cache(4);
  const x86::RewriteCacheKey key{x86::HashBytes(x86::CodePageContext(a, 0)), 0, 0};
  cache.Insert(key, x86::CodePageContext(a, 0), *clean);
  EXPECT_FALSE(cache.Lookup(key, x86::CodePageContext(b, 0)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // The rescan of B scrubs it and its insert takes the key over.
  starts.clear();
  auto scrubbed = x86::RewriteVmfuncPage(b, 0, rw, starts);
  ASSERT_TRUE(scrubbed.ok());
  ASSERT_FALSE(scrubbed->patches.empty());
  std::vector<uint8_t> rewritten = b;
  for (const x86::PagePatch& patch : scrubbed->patches) {
    std::copy(patch.bytes.begin(), patch.bytes.end(), rewritten.begin() + patch.code_off);
  }
  EXPECT_TRUE(x86::FindVmfuncBytes(rewritten).empty());
  cache.Insert(key, x86::CodePageContext(b, 0), *scrubbed);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Lookup(key, x86::CodePageContext(a, 0)).has_value());
  auto replay = cache.Lookup(key, x86::CodePageContext(b, 0));
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->patches.size(), scrubbed->patches.size());
}

// config.rewrite_cache_entries == 0 disables caching entirely — the
// cold-start ablation baseline: every fork pays the full scan.
TEST_F(RegistrationPipelineTest, ZeroBudgetDisablesTheCache) {
  SkyBridgeConfig config;
  config.rewrite_cache_entries = 0;
  Boot(config);
  std::vector<uint8_t> image = NopImage(2);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  auto* a = kernel_->CreateProcessWithImage("a", image).value();
  ASSERT_TRUE(
      sky_->RegisterServer(a, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  auto* b = kernel_->CreateProcessWithImage("b", image).value();
  ASSERT_TRUE(
      sky_->RegisterServer(b, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  EXPECT_EQ(Metric("skybridge.registration.cache_hits"), 0u);
  EXPECT_EQ(Metric("skybridge.registration.pages_rescanned"), 4u);
  EXPECT_EQ(a->code_image(), b->code_image());
}

// Snapshot/restore: a captured registration re-applies to an identical clone
// with zero scanning, and every precondition violation is rejected.
TEST_F(RegistrationPipelineTest, SnapshotRestoreSkipsTheScanAndChecksPreconditions) {
  Boot();
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  auto* tmpl = kernel_->CreateProcessWithImage("template", image).value();
  const ServerId sid =
      sky_->RegisterServer(tmpl, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  const uint64_t scanned = Metric("skybridge.registration.pages_rescanned");
  ASSERT_EQ(scanned, 4u);

  auto snapshot = sky_->SnapshotRegistration(tmpl);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->prepared_mask & 1u, 1u);
  EXPECT_EQ(snapshot->code, tmpl->code_image());
  EXPECT_FALSE(snapshot->window_pages.empty());

  // Restore onto an identical clone: no scan, bulk copy only.
  auto* clone = kernel_->CreateProcessWithImage("clone", image).value();
  ASSERT_TRUE(sky_->RestoreRegistration(clone, *snapshot).ok());
  EXPECT_TRUE(clone->code_rewritten());
  EXPECT_EQ(clone->code_image(), tmpl->code_image());
  EXPECT_EQ(Metric("skybridge.registration.snapshot_restores"), 1u);
  EXPECT_EQ(Metric("skybridge.registration.pages_rescanned"), scanned);
  // Registering the restored clone skips the rewrite pass entirely.
  const ServerId clone_sid =
      sky_->RegisterServer(clone, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  EXPECT_EQ(Metric("skybridge.registration.pages_rescanned"), scanned);
  EXPECT_EQ(Metric("skybridge.registration.cache_hits"), 0u);

  // The restored worker serves like the template.
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  ASSERT_TRUE(sky_->RegisterClient(client, clone_sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  EXPECT_TRUE(sky_->DirectServerCall(thread, clone_sid, Message(3)).ok());

  // Preconditions: no snapshot of an unprepared process, no restore onto a
  // prepared process, no restore over a mismatched image.
  auto* fresh = kernel_->CreateProcessWithImage("fresh", image).value();
  EXPECT_EQ(sky_->SnapshotRegistration(fresh).status().code(),
            sb::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(sky_->RestoreRegistration(tmpl, *snapshot).code(),
            sb::ErrorCode::kFailedPrecondition);
  auto* other = kernel_->CreateProcessWithImage("other", NopImage(4)).value();
  EXPECT_EQ(sky_->RestoreRegistration(other, *snapshot).code(),
            sb::ErrorCode::kFailedPrecondition);

  // A restore is confirmed against the pristine bytes, not the hash alone:
  // a clone one byte off fails even with the snapshot's hash forged to
  // match it (a crafted collision).
  std::vector<uint8_t> tampered = image;
  tampered[3 * kPageSize + 100] = 0xf8;
  auto* near_clone = kernel_->CreateProcessWithImage("near-clone", tampered).value();
  EXPECT_EQ(sky_->RestoreRegistration(near_clone, *snapshot).code(),
            sb::ErrorCode::kFailedPrecondition);
  SkyBridge::RegistrationSnapshot forged = *snapshot;
  forged.pristine_hash = x86::HashBytes(tampered);
  EXPECT_EQ(sky_->RestoreRegistration(near_clone, forged).code(),
            sb::ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(near_clone->code_rewritten());
  // Post-rewrite code longer than the pristine image (and the code window)
  // is refused before anything is written.
  SkyBridge::RegistrationSnapshot oversized = *snapshot;
  oversized.code.resize(mk::kCodeSize + kPageSize, 0x90);
  EXPECT_EQ(sky_->RestoreRegistration(fresh, oversized).code(),
            sb::ErrorCode::kInvalidArgument);
  EXPECT_EQ(fresh->code_image(), image);
  // A window page longer than one page (it would spill into the next frame)
  // or outside the snippet window (here: over the code) is refused before
  // anything is written.
  SkyBridge::RegistrationSnapshot long_window = *snapshot;
  long_window.window_pages[0].second.resize(kPageSize + 64, 0xcc);
  EXPECT_EQ(sky_->RestoreRegistration(fresh, long_window).code(),
            sb::ErrorCode::kInvalidArgument);
  SkyBridge::RegistrationSnapshot stray_window = *snapshot;
  stray_window.window_pages.emplace_back(mk::kCodeVa, std::vector<uint8_t>(64, 0xcc));
  EXPECT_EQ(sky_->RestoreRegistration(fresh, stray_window).code(),
            sb::ErrorCode::kInvalidArgument);
  EXPECT_EQ(fresh->code_image(), image);
  EXPECT_FALSE(fresh->code_rewritten());
  EXPECT_TRUE(WindowPages(fresh).empty());
  EXPECT_EQ(Metric("skybridge.registration.snapshot_restores"), 1u);
}

// registration_mode = snapshot: the first registration of an image eagerly
// scans and auto-captures; every later identical process restores instead.
TEST_F(RegistrationPipelineTest, SnapshotModeAutoCapturesAndRestoresClones) {
  SkyBridgeConfig config;
  config.registration_mode = RegistrationMode::kSnapshot;
  Boot(config);
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  auto* tmpl = kernel_->CreateProcessWithImage("template", image).value();
  const ServerId sid =
      sky_->RegisterServer(tmpl, 8, EchoHandler(), CrossingBackendKind::kEptp).value();
  const uint64_t scanned = Metric("skybridge.registration.pages_rescanned");
  EXPECT_EQ(Metric("skybridge.registration.snapshot_restores"), 0u);

  // Three cloned workers: each client registration restores from the
  // library keyed by the pristine image hash — zero additional scanning.
  for (int i = 0; i < 3; ++i) {
    auto* worker =
        kernel_->CreateProcessWithImage("worker-" + std::to_string(i), image).value();
    ASSERT_TRUE(sky_->RegisterClient(worker, sid).ok());
    EXPECT_TRUE(worker->code_rewritten());
    mk::Thread* thread = worker->AddThread(i);
    ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(i), worker).ok());
    EXPECT_TRUE(sky_->DirectServerCall(thread, sid, Message(i)).ok());
  }
  EXPECT_EQ(Metric("skybridge.registration.snapshot_restores"), 3u);
  EXPECT_EQ(Metric("skybridge.registration.pages_rescanned"), scanned);
}

// Lazy mode: pages fault in one at a time as execution reaches them; pages
// never executed are never scanned, and the planted pattern on a cold page
// stays (harmlessly, non-executable) until its first execution.
TEST_F(RegistrationPipelineTest, LazyModeFaultsPagesInOneAtATime) {
  SkyBridgeConfig config;
  config.registration_mode = RegistrationMode::kLazy;
  Boot(config);
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 3 * kPageSize + 2048, x86::kVmfuncBytes);
  auto* server = kernel_->CreateProcessWithImage("server", image).value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  // Registration armed, nothing scanned: all four server pages non-exec.
  EXPECT_EQ(Metric("skybridge.registration.exec_faults"), 0u);
  EXPECT_EQ(Metric("skybridge.registration.pages_rescanned"), 0u);
  for (size_t page = 0; page < 4; ++page) {
    EXPECT_FALSE(PageExecutable(server, page)) << page;
  }
  EXPECT_EQ(x86::FindVmfuncBytes(server->code_image()).size(), 2u);

  // tag 0 executes the client page, the handler page and server page 0.
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(0)).ok());
  const uint64_t after_first = Metric("skybridge.registration.exec_faults");
  EXPECT_GE(after_first, 2u);
  EXPECT_TRUE(PageExecutable(server, 0));
  EXPECT_FALSE(PageExecutable(server, 1));
  EXPECT_FALSE(server->code_rewritten());

  // tag 2 reaches server page 2; pages 1 and 3 (with their patterns) are
  // still cold, still non-executable.
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(2)).ok());
  EXPECT_EQ(Metric("skybridge.registration.exec_faults"), after_first + 1);
  EXPECT_TRUE(PageExecutable(server, 2));
  EXPECT_EQ(x86::FindVmfuncBytes(server->code_image()).size(), 2u);

  // Touch the pattern pages: each first execution scrubs its page.
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(1)).ok());
  EXPECT_EQ(x86::FindVmfuncBytes(server->code_image()).size(), 1u);
  EXPECT_FALSE(server->code_rewritten());
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(3)).ok());
  EXPECT_TRUE(x86::FindVmfuncBytes(server->code_image()).empty());
  EXPECT_TRUE(server->code_rewritten());
  for (size_t page = 0; page < 4; ++page) {
    EXPECT_TRUE(PageExecutable(server, page)) << page;
  }

  // Steady state: the fault path is drained, counters hold still.
  const uint64_t faults = Metric("skybridge.registration.exec_faults");
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid, Message(1)).ok());
  EXPECT_EQ(Metric("skybridge.registration.exec_faults"), faults);
}

// The kFaultExecScan recovery contract: a persistently failing page scan
// exhausts the bounded retry and surfaces clean Unavailable; once the fault
// clears, the next execution scrubs the page and the call succeeds.
TEST_F(RegistrationPipelineTest, ExecScanFaultSurfacesUnavailableThenRecovers) {
  SkyBridgeConfig config;
  config.registration_mode = RegistrationMode::kLazy;
  Boot(config);
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  // Every scan attempt fails: the bounded retry drains, the call reports
  // Unavailable, and no page is left half-scrubbed or executable.
  sb::fault::DisarmAll();
  sb::fault::Arm(kFaultExecScan);
  EXPECT_EQ(sky_->DirectServerCall(thread, sid, Message(0)).status().code(),
            sb::ErrorCode::kUnavailable);
  EXPECT_GE(sb::fault::StatsFor(kFaultExecScan).fires, 1u);
  EXPECT_FALSE(PageExecutable(client, 0));
  EXPECT_EQ(Metric("skybridge.registration.lazy_rewrites"), 0u);
  const sb::Status invariants = sky_->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();

  // Fault cleared: the retry path completes and the call goes through.
  sb::fault::DisarmAll();
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid, Message(0)).ok());
  EXPECT_GE(Metric("skybridge.registration.lazy_rewrites"), 2u);
  EXPECT_TRUE(PageExecutable(client, 0));

  // A transient failure (first attempt only) is absorbed by the in-fault
  // retry: the caller never sees it.
  auto* late = kernel_->CreateProcess("late-client").value();
  ASSERT_TRUE(sky_->RegisterClient(late, sid).ok());
  mk::Thread* late_thread = late->AddThread(1);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(1), late).ok());
  sb::fault::FaultSpec once;
  once.nth_hit = 1;
  sb::fault::Arm(kFaultExecScan, once);
  EXPECT_TRUE(sky_->DirectServerCall(late_thread, sid, Message(1)).ok());
  EXPECT_EQ(sb::fault::StatsFor(kFaultExecScan).fires, 1u);
  sb::fault::DisarmAll();
}

// A shrinking update must not leave the old image's tail in the executable
// code window: the old image's `b8 d4 ..` right past the new end would
// complete the new image's trailing `0f 01` into a live VMFUNC that a scan
// of the new image alone cannot see. The whole window is scanned from guest
// memory.
TEST_F(RegistrationPipelineTest, ShrinkingUpdateLeavesNoStaleTailInTheCodeWindow) {
  Boot();
  const size_t n = 2 * kPageSize + 100;
  std::vector<uint8_t> image = NopImage(3);
  const uint8_t mov_eax[] = {0xb8, 0xd4, 0x00, 0x00, 0x00};
  std::copy(std::begin(mov_eax), std::end(mov_eax), image.begin() + (n - 1));
  auto* server = kernel_->CreateProcessWithImage("server", image).value();
  ASSERT_TRUE(sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  EXPECT_TRUE(x86::FindVmfuncBytes(GuestCode(server)).empty());

  std::vector<uint8_t> shorter(n, 0x90);
  shorter[n - 2] = 0x0f;
  shorter[n - 1] = 0x01;
  ASSERT_TRUE(sky_->UpdateProcessCode(server, shorter).ok());
  ASSERT_TRUE(PageExecutable(server, 2));
  EXPECT_TRUE(x86::FindVmfuncBytes(server->code_image()).empty());
  const std::vector<uint8_t> window = GuestCode(server);
  EXPECT_TRUE(x86::FindVmfuncBytes(window).empty());
  EXPECT_TRUE(std::all_of(window.begin() + n, window.end(), [](uint8_t b) { return b == 0; }));
}

// code_image() is the guest bytes at kCodeVa, with the image's length,
// through every path that writes code: creation, the eager scrub, lazy
// page-by-page fault-in, a snapshot restore and growing and shrinking
// updates.
TEST_F(RegistrationPipelineTest, CodeImageIsTheGuestBytesThroughEveryWriter) {
  SkyBridgeConfig lazy;
  lazy.registration_mode = RegistrationMode::kLazy;
  Boot(lazy);
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 3 * kPageSize + 2048, x86::kVmfuncBytes);
  auto* server = kernel_->CreateProcessWithImage("server", image).value();
  ExpectImageIsGuestMemory(server, image.size(), "created");
  EXPECT_EQ(server->code_image(), image);
  const ServerId sid =
      sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  for (uint64_t tag : {0, 1, 2, 3}) {
    ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(tag)).ok());
    ExpectImageIsGuestMemory(server, image.size(), "lazy fault-in");
  }
  EXPECT_TRUE(server->code_rewritten());
  EXPECT_TRUE(x86::FindVmfuncBytes(server->code_image()).empty());

  Boot();
  auto* tmpl = kernel_->CreateProcessWithImage("template", image).value();
  ASSERT_TRUE(sky_->RegisterServer(tmpl, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  ExpectImageIsGuestMemory(tmpl, image.size(), "eager scrub");
  EXPECT_TRUE(x86::FindVmfuncBytes(tmpl->code_image()).empty());
  auto snapshot = sky_->SnapshotRegistration(tmpl);
  ASSERT_TRUE(snapshot.ok());
  auto* clone = kernel_->CreateProcessWithImage("clone", image).value();
  ASSERT_TRUE(sky_->RestoreRegistration(clone, *snapshot).ok());
  ExpectImageIsGuestMemory(clone, image.size(), "restore");
  EXPECT_EQ(clone->code_image(), snapshot->code);

  std::vector<uint8_t> grown = NopImage(6);
  PlantEmbedded(grown, 5 * kPageSize + 2048, x86::kVmfuncBytes);
  ASSERT_TRUE(sky_->UpdateProcessCode(tmpl, grown).ok());
  ExpectImageIsGuestMemory(tmpl, grown.size(), "growing update");
  EXPECT_TRUE(x86::FindVmfuncBytes(tmpl->code_image()).empty());
  const std::vector<uint8_t> shrunk = NopImage(2);
  ASSERT_TRUE(sky_->UpdateProcessCode(tmpl, shrunk).ok());
  ExpectImageIsGuestMemory(tmpl, shrunk.size(), "shrinking update");
  EXPECT_EQ(tmpl->code_image(), shrunk);
}

// Clones of one template share one pristine buffer, and an update of one
// clone re-points only that clone: its siblings' pristine bytes stay.
TEST_F(RegistrationPipelineTest, ClonesShareOnePristineBufferAndUpdatesDoNotAlias) {
  Boot();
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  auto* server = kernel_->CreateProcessWithImage("server", NopImage(2)).value();
  const ServerId sid =
      sky_->RegisterServer(server, 64, EchoHandler(), CrossingBackendKind::kEptp).value();
  std::vector<mk::Process*> clones;
  for (int i = 0; i < 64; ++i) {
    clones.push_back(
        kernel_->CreateProcessWithImage("clone-" + std::to_string(i), image).value());
    ASSERT_TRUE(sky_->RegisterClient(clones.back(), sid).ok());
  }
  const std::vector<uint8_t>* shared = SkyBridgeTestPeer::PristineBuffer(*sky_, clones[0]);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(*shared, image);
  for (mk::Process* clone : clones) {
    EXPECT_EQ(SkyBridgeTestPeer::PristineBuffer(*sky_, clone), shared);
  }
  EXPECT_NE(SkyBridgeTestPeer::PristineBuffer(*sky_, server), shared);
  EXPECT_EQ(SkyBridgeTestPeer::InternEntries(*sky_), 2u);

  auto before = sky_->SnapshotRegistration(clones[1]);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->pristine_image, image);
  std::vector<uint8_t> updated = image;
  updated[2 * kPageSize + 2048] = 0xf8;
  ASSERT_TRUE(sky_->UpdateProcessCode(clones[0], updated).ok());
  EXPECT_EQ(*SkyBridgeTestPeer::PristineBuffer(*sky_, clones[0]), updated);
  EXPECT_EQ(SkyBridgeTestPeer::PristineBuffer(*sky_, clones[1]), shared);
  auto after = sky_->SnapshotRegistration(clones[1]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->pristine_image, image);
  EXPECT_EQ(after->pristine_hash, before->pristine_hash);
  EXPECT_EQ(after->code, before->code);
}

// A buffer is shared only when the bytes match: an image forged onto a live
// image's hash keeps a private copy, and equal bytes still share.
TEST_F(RegistrationPipelineTest, InternSharesOnlyByteEqualImages) {
  Boot();
  const std::vector<uint8_t> a = NopImage(1);
  std::vector<uint8_t> b = a;
  b[100] = 0xf8;
  const uint64_t hash = x86::HashBytes(a);
  const auto first = SkyBridgeTestPeer::Intern(*sky_, a, hash);
  const auto collided = SkyBridgeTestPeer::Intern(*sky_, b, hash);
  EXPECT_NE(collided, first);
  EXPECT_EQ(*first, a);
  EXPECT_EQ(*collided, b);
  EXPECT_EQ(SkyBridgeTestPeer::Intern(*sky_, a, hash), first);
  EXPECT_EQ(SkyBridgeTestPeer::InternEntries(*sky_), 1u);
}

// Updates never grow the intern table past the images in use: 100 updates
// alternating between two images, then 50 distinct ones, leave at most one
// entry per live image plus the one just retired.
TEST_F(RegistrationPipelineTest, RepeatedUpdatesKeepTheInternTableBounded) {
  Boot();
  const std::vector<uint8_t> a = NopImage(1);
  std::vector<uint8_t> b = NopImage(1);
  b[100] = 0xf8;
  auto* server = kernel_->CreateProcessWithImage("server", a).value();
  ASSERT_TRUE(sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(sky_->UpdateProcessCode(server, i % 2 == 0 ? b : a).ok());
    EXPECT_LE(SkyBridgeTestPeer::InternEntries(*sky_), 3u) << i;
  }
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> distinct = NopImage(1);
    distinct[200 + i] = 0xf8;
    ASSERT_TRUE(sky_->UpdateProcessCode(server, distinct).ok());
    EXPECT_LE(SkyBridgeTestPeer::InternEntries(*sky_), 3u) << i;
    EXPECT_EQ(*SkyBridgeTestPeer::PristineBuffer(*sky_, server), distinct);
  }
}

// Each pattern pass must emit no gate pattern at all, not only its own: an
// MPK process is scrubbed twice (VMFUNC, then WRPKRU), and a `mov rax,
// imm64` holding both triples has its VMFUNC pass split the immediate into
// snippet bytes the WRPKRU pass never rescans. Registration either fails or
// leaves the code and every mapped (executable) snippet page clean.
TEST_F(RegistrationPipelineTest, NoPassEmitsAnyGatePattern) {
  const std::vector<std::vector<uint8_t>> plants = {
      {0x48, 0xb8, 0x0f, 0x01, 0xd4, 0x00, 0x0f, 0x01, 0xef, 0x00},
      {0x48, 0xb8, 0x0f, 0x01, 0xef, 0x00, 0x0f, 0x01, 0xd4, 0x00},
  };
  x86::ScanOptions wrpkru;
  wrpkru.pattern = x86::kWrpkruBytes;
  for (size_t i = 0; i < plants.size(); ++i) {
    for (CrossingBackendKind backend : {CrossingBackendKind::kEptp, CrossingBackendKind::kMpk}) {
      Boot();
      std::vector<uint8_t> image = NopImage(2);
      std::copy(plants[i].begin(), plants[i].end(), image.begin() + 2048);
      auto* server = kernel_->CreateProcessWithImage("server", image).value();
      const auto sid = sky_->RegisterServer(server, 4, EchoHandler(), backend);
      const std::string where =
          std::string(CrossingBackendName(backend)) + " plant " + std::to_string(i);
      if (!sid.ok()) {
        EXPECT_EQ(sid.status().code(), sb::ErrorCode::kInternal) << where;
        continue;
      }
      // The code holds no pattern its passes scrub (the EPTP backend leaves
      // WRPKRU alone), and no snippet page holds any.
      const std::vector<uint8_t> code = GuestCode(server);
      EXPECT_TRUE(x86::FindVmfuncBytes(code).empty()) << where;
      if (backend == CrossingBackendKind::kMpk) {
        EXPECT_TRUE(x86::FindVmfuncBytes(code, wrpkru).empty()) << where;
      }
      const std::vector<std::string> found = WindowGateBytes(server);
      EXPECT_TRUE(found.empty()) << where << ": " << ::testing::PrintToString(found);
    }
  }
}

// A lazy server whose code is replaced before its first call: the update's
// eager rescan lifts the exec protection everywhere it was armed — the
// server's own EPT and the binding EPT a client registered meanwhile.
TEST_F(RegistrationPipelineTest, UpdateBeforeFirstCallLiftsLazyProtectionEverywhere) {
  SkyBridgeConfig config;
  config.registration_mode = RegistrationMode::kLazy;
  Boot(config);
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  auto* server = kernel_->CreateProcessWithImage("server", image).value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  const hw::Gpa code_gpa = server->address_space().WalkVa(mk::kCodeVa).gpa;
  hw::Ept* own = kernel_->rootkernel()->ept(server->ept_id());
  hw::Ept* binding = kernel_->rootkernel()->ept(SkyBridgeTestPeer::BindingEpt(*sky_, client, sid));
  ASSERT_NE(own, nullptr);
  ASSERT_NE(binding, nullptr);
  ASSERT_NE(own, binding);
  for (size_t page = 0; page < 4; ++page) {
    EXPECT_FALSE(own->Walk(code_gpa + page * kPageSize, hw::kEptExec).ok) << page;
    EXPECT_FALSE(binding->Walk(code_gpa + page * kPageSize, hw::kEptExec).ok) << page;
  }

  std::vector<uint8_t> updated = image;
  PlantEmbedded(updated, 3 * kPageSize + 2048, x86::kVmfuncBytes);
  ASSERT_TRUE(sky_->UpdateProcessCode(server, updated).ok());
  for (size_t page = 0; page < 4; ++page) {
    EXPECT_TRUE(own->Walk(code_gpa + page * kPageSize, hw::kEptExec).ok) << page;
    EXPECT_TRUE(binding->Walk(code_gpa + page * kPageSize, hw::kEptExec).ok) << page;
  }
  EXPECT_TRUE(x86::FindVmfuncBytes(GuestCode(server)).empty());
  EXPECT_TRUE(server->code_rewritten());
  EXPECT_EQ(Metric("skybridge.registration.exec_faults"), 0u);
}

// Exec faults are routed by range: a shrinking update bounds the server's
// range by its new length, so a fault on the old last page belongs to no
// process.
TEST_F(RegistrationPipelineTest, ExecFaultPastAShrunkImageIsUntracked) {
  SkyBridgeConfig config;
  config.registration_mode = RegistrationMode::kLazy;
  Boot(config);
  auto* server = kernel_->CreateProcessWithImage("server", NopImage(4)).value();
  ASSERT_TRUE(sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  const hw::Gpa old_last = server->address_space().WalkVa(mk::kCodeVa).gpa + 3 * kPageSize;
  ASSERT_TRUE(sky_->UpdateProcessCode(server, NopImage(2)).ok());

  hw::Core& core = machine_->core(0);
  EXPECT_EQ(SkyBridgeTestPeer::HandleExecFault(*sky_, core, old_last).code(),
            sb::ErrorCode::kNotFound);
  EXPECT_EQ(kernel_->RaiseExecFault(core, old_last).code(), sb::ErrorCode::kUnavailable);
  // The new image's own pages are still tracked (and already scrubbed).
  EXPECT_TRUE(SkyBridgeTestPeer::HandleExecFault(*sky_, core, old_last - 2 * kPageSize).ok());
}

}  // namespace
}  // namespace skybridge
