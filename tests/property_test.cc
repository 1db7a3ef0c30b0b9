// Cross-module property tests: decoder fuzzing, EPT remaps against a
// reference map, file-system operations against a reference model (with a
// remount in the middle), and executor determinism.

#include <map>

#include <gtest/gtest.h>

#include "src/apps/corpus.h"
#include "src/base/rng.h"
#include "src/fs/block_device.h"
#include "src/fs/xv6fs.h"
#include "src/hw/ept.h"
#include "src/hw/machine.h"
#include "src/sim/executor.h"
#include "src/x86/assembler.h"
#include "src/x86/decoder.h"
#include "src/x86/emulator.h"
#include "src/x86/rewriter.h"
#include "src/x86/scanner.h"

namespace {

using sb::kGiB;
using sb::kMiB;
using sb::kPageSize;

// ---- Decoder fuzz: arbitrary bytes never crash, lengths stay sane ----

class DecoderFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DecoderFuzzTest, RandomBytesDecodeSafely) {
  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  std::vector<uint8_t> bytes(4096);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  size_t pos = 0;
  while (pos < bytes.size()) {
    const x86::Insn insn = x86::Decode(bytes, pos);
    ASSERT_GE(insn.length, 1);
    ASSERT_LE(insn.length, 15);
    if (insn.valid) {
      // Field offsets stay inside the instruction.
      if (insn.has_modrm) {
        ASSERT_LT(insn.modrm_off, insn.length);
      }
      if (insn.disp_len > 0) {
        ASSERT_LE(insn.disp_off + insn.disp_len, insn.length);
      }
      if (insn.imm_len > 0) {
        ASSERT_LE(insn.imm_off + insn.imm_len, insn.length);
      }
    }
    pos += insn.length;
  }
  // The sweep exactly tiles the buffer.
  const std::vector<size_t> starts = x86::LinearSweep(bytes);
  ASSERT_FALSE(starts.empty());
  EXPECT_EQ(starts.front(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest, ::testing::Range(0, 16));

// ---- EPT: random remaps behave like a reference map ----

class EptPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EptPropertyTest, RandomRemapsMatchReference) {
  hw::HostPhysMem mem(2 * kGiB);
  hw::FrameAllocator frames(1 * kGiB, 256 * kMiB);
  auto base = hw::Ept::Create(mem, frames);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Map(0, 0, sb::kHugePage1G, hw::kEptRwx).ok());

  auto derived = (*base)->ShallowCopy();
  ASSERT_TRUE(derived.ok());

  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 1337 + 3);
  std::map<hw::Gpa, hw::Hpa> reference;
  for (int i = 0; i < 64; ++i) {
    const hw::Gpa gpa = rng.Below(1ULL << 18) * kPageSize;  // Within the 1G region.
    const hw::Hpa target = (rng.Below(1ULL << 18)) * kPageSize;
    ASSERT_TRUE((*derived)->RemapGpaPage(gpa, target).ok());
    reference[gpa] = target;
  }
  // Remapped pages translate to their targets; everything else is identity.
  for (const auto& [gpa, target] : reference) {
    const hw::EptWalk walk = (*derived)->Walk(gpa + 0x123, hw::kEptRead);
    ASSERT_TRUE(walk.ok);
    EXPECT_EQ(walk.hpa, target + 0x123);
    // The base EPT is untouched.
    EXPECT_EQ((*base)->Walk(gpa + 0x123, hw::kEptRead).hpa, gpa + 0x123);
  }
  for (int i = 0; i < 64; ++i) {
    const hw::Gpa gpa = rng.Below(1ULL << 18) * kPageSize;
    if (!reference.contains(gpa)) {
      EXPECT_EQ((*derived)->Walk(gpa, hw::kEptRead).hpa, gpa);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EptPropertyTest, ::testing::Range(0, 8));

// ---- File system vs a reference model, with a remount mid-way ----

class FsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FsPropertyTest, RandomOpsMatchReferenceModel) {
  fsys::RamDisk disk(8192);
  auto fs = std::make_unique<fsys::Xv6Fs>(fsys::DirectBlockTransport(&disk));
  ASSERT_TRUE(fs->Mkfs().ok());
  ASSERT_TRUE(fs->Mount().ok());

  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 11);
  std::map<std::string, std::string> reference;  // path -> contents
  auto random_path = [&] { return "/f" + std::to_string(rng.Below(12)); };

  for (int step = 0; step < 250; ++step) {
    if (step == 125) {
      // Remount mid-run: everything must persist.
      fs = std::make_unique<fsys::Xv6Fs>(fsys::DirectBlockTransport(&disk));
      ASSERT_TRUE(fs->Mount().ok());
    }
    const std::string path = random_path();
    switch (rng.Below(4)) {
      case 0: {  // Create
        const bool existed = reference.contains(path);
        const bool created = fs->Create(path).ok();
        EXPECT_EQ(created, !existed) << path;
        if (created) {
          reference[path] = "";
        }
        break;
      }
      case 1: {  // Write (append-style at a random offset within size+1K)
        if (!reference.contains(path)) {
          break;
        }
        auto inum = fs->Lookup(path);
        ASSERT_TRUE(inum.ok());
        std::string& contents = reference[path];
        const uint32_t offset = static_cast<uint32_t>(rng.Below(contents.size() + 512));
        const size_t len = 1 + rng.Below(700);
        std::string data(len, static_cast<char>('a' + rng.Below(26)));
        ASSERT_TRUE(fs->WriteFile(*inum, offset,
                                  std::span<const uint8_t>(
                                      reinterpret_cast<const uint8_t*>(data.data()), len))
                        .ok());
        if (contents.size() < offset + len) {
          contents.resize(offset + len, '\0');
        }
        contents.replace(offset, len, data);
        break;
      }
      case 2: {  // Read-verify the whole file
        if (!reference.contains(path)) {
          EXPECT_FALSE(fs->Lookup(path).ok());
          break;
        }
        auto inum = fs->Lookup(path);
        ASSERT_TRUE(inum.ok());
        const std::string& contents = reference[path];
        EXPECT_EQ(*fs->FileSize(*inum), contents.size());
        std::vector<uint8_t> out(contents.size());
        if (!contents.empty()) {
          ASSERT_TRUE(fs->ReadFile(*inum, 0, out).ok());
          EXPECT_EQ(std::string(out.begin(), out.end()), contents) << path;
        }
        break;
      }
      case 3: {  // Unlink
        const bool existed = reference.contains(path);
        EXPECT_EQ(fs->Unlink(path).ok(), existed) << path;
        reference.erase(path);
        break;
      }
    }
  }
  // Final directory listing matches the reference exactly, and the on-disk
  // structures pass the consistency check.
  auto names = fs->ListDir("/");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), reference.size());
  const sb::Status fsck = fs->Fsck();
  EXPECT_TRUE(fsck.ok()) << fsck.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsPropertyTest, ::testing::Range(0, 8));

// ---- Chunked scan accounting ----

TEST(ScanParityProperty, PatternsStraddlingChunkBoundariesAreFound) {
  // Place the 3-byte pattern at every offset around each chunk boundary so
  // the straddle cases (pattern starting 1 or 2 bytes before a boundary) are
  // all exercised. The chunk size only sets the accounting granularity.
  const size_t chunk = 256;
  std::vector<uint8_t> code(chunk * 8, 0x90);
  std::vector<size_t> expected;
  for (size_t b = 1; b < 8; ++b) {
    const size_t off = b * chunk - (b % 3);  // Boundary, boundary-1, boundary-2.
    code[off] = 0x0f;
    code[off + 1] = 0x01;
    code[off + 2] = 0xd4;
    expected.push_back(off);
  }
  EXPECT_EQ(x86::FindVmfuncBytes(code), expected);
  x86::ScanOptions options;
  options.chunk_bytes = chunk;
  x86::ScanStats stats;
  options.stats = &stats;
  EXPECT_EQ(x86::FindVmfuncBytes(code, options), expected);
  EXPECT_EQ(stats.pages, 8u);
}

// ---- Scanner fuzz: random byte streams vs a naive reference search ----

std::vector<size_t> NaiveFindPattern(const std::vector<uint8_t>& bytes) {
  std::vector<size_t> hits;
  for (size_t i = 0; i + 3 <= bytes.size(); ++i) {
    if (bytes[i] == 0x0f && bytes[i + 1] == 0x01 && bytes[i + 2] == 0xd4) {
      hits.push_back(i);
    }
  }
  return hits;
}

class ScannerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ScannerFuzzTest, RandomStreamsMatchTheNaiveSearch) {
  sb::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  std::vector<uint8_t> bytes(48 * 1024);
  for (auto& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  // Sprinkle the pattern at arbitrary offsets: mid-"instruction" for any
  // later decode, back to back, wherever the dice land.
  for (int i = 0; i < 24; ++i) {
    const size_t off = rng.Below(bytes.size() - 3);
    bytes[off] = 0x0f;
    bytes[off + 1] = 0x01;
    bytes[off + 2] = 0xd4;
  }
  const std::vector<size_t> expected = NaiveFindPattern(bytes);
  ASSERT_GE(expected.size(), 1u);
  EXPECT_EQ(x86::FindVmfuncBytes(bytes), expected);
  // Awkward accounting chunk sizes change the page count, never the hits.
  for (const size_t chunk : {size_t{257}, size_t{4096}}) {
    x86::ScanOptions options;
    options.chunk_bytes = chunk;
    x86::ScanStats stats;
    options.stats = &stats;
    EXPECT_EQ(x86::FindVmfuncBytes(bytes, options), expected) << "chunk=" << chunk;
    EXPECT_EQ(stats.pages, (bytes.size() + chunk - 1) / chunk) << "chunk=" << chunk;
  }
  // The classifying scan never crashes on arbitrary surrounding bytes and
  // misses nothing the byte search found.
  const std::vector<x86::VmfuncHit> hits = x86::ScanForVmfunc(bytes);
  ASSERT_EQ(hits.size(), expected.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].pattern_off, expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScannerFuzzTest, ::testing::Range(0, 8));

// ---- Rewriter: every embedding class is scrubbed, behavior preserved ----

constexpr uint64_t kRwCodeBase = 0x400000;
constexpr uint64_t kRwPageBase = 0x1000;
constexpr uint64_t kRwDataBase = 0x10000;
constexpr uint64_t kRwDataLen = 0x1000;

struct EmuRun {
  x86::StopInfo stop;
  x86::CpuState state;
  std::vector<uint8_t> data;
};

EmuRun RunProgram(const std::vector<uint8_t>& code, const std::vector<uint8_t>& page) {
  x86::Emulator emu;
  emu.LoadBytes(kRwCodeBase, code);
  if (!page.empty()) {
    emu.LoadBytes(kRwPageBase, page);
  }
  emu.state().reg(x86::Reg::kRax) = 0x1111;
  emu.state().reg(x86::Reg::kRbx) = 0x2222;
  emu.state().reg(x86::Reg::kRcx) = 0x3333;
  emu.state().reg(x86::Reg::kRdx) = 0x4444;
  emu.state().reg(x86::Reg::kRsi) = kRwDataBase + 0x100;
  emu.state().reg(x86::Reg::kRdi) = kRwDataBase;
  emu.state().rip = kRwCodeBase;
  emu.state().reg(x86::Reg::kRsp) = x86::Emulator::kInitialRsp;
  EmuRun r;
  r.stop = emu.Run(100000);
  r.state = emu.state();
  r.data.resize(kRwDataLen);
  for (uint64_t i = 0; i < kRwDataLen; ++i) {
    r.data[i] = emu.ReadByte(kRwDataBase + i);
  }
  return r;
}

// Random flag-agnostic filler that keeps rdi (the data pointer) and rsp
// intact so memory operands stay well-defined.
void EmitFiller(x86::Assembler& a, sb::Rng& rng, int n_ops) {
  static const x86::Reg kPool[] = {x86::Reg::kRax, x86::Reg::kRbx, x86::Reg::kRcx,
                                   x86::Reg::kRdx, x86::Reg::kR8};
  auto reg = [&] { return kPool[rng.Below(5)]; };
  for (int i = 0; i < n_ops; ++i) {
    switch (rng.Below(6)) {
      case 0:
        a.MovRI64(reg(), rng.Below(1u << 30));
        break;
      case 1:
        a.AddRR(reg(), reg());
        break;
      case 2:
        a.XorRR(reg(), reg());
        break;
      case 3:
        a.MovMR64(x86::Reg::kRdi, static_cast<int32_t>(rng.Below(0x80) * 8), reg());
        break;
      case 4:
        a.MovRM64(reg(), x86::Reg::kRdi, static_cast<int32_t>(rng.Below(0x80) * 8));
        break;
      case 5:
        a.ShlRI(reg(), static_cast<uint8_t>(rng.Below(8)));
        break;
    }
  }
}

class RewriteEmbeddingTest : public ::testing::TestWithParam<int> {};

// Plants `0F 01 D4` as a true VMFUNC at an instruction boundary and inside
// every field a Table 3 occurrence can hide in (ModRM, SIB, displacement,
// immediate, spanning two instructions), surrounded by random filler. After
// rewriting: zero occurrences anywhere, and the program's architectural
// effect is unchanged.
TEST_P(RewriteEmbeddingTest, EveryEmbeddingIsScrubbedAndEquivalent) {
  struct Embedding {
    const char* name;
    x86::VmfuncOverlap expected;
    void (*plant)(x86::Assembler&);
  };
  static const Embedding kEmbeddings[] = {
      {"boundary", x86::VmfuncOverlap::kIsVmfunc, [](x86::Assembler& a) { a.Vmfunc(); }},
      {"imm", x86::VmfuncOverlap::kInImm,
       [](x86::Assembler& a) { a.AddRI(x86::Reg::kRax, 0x00d4010f); }},
      // imul rcx, [rdi], 0xD401 — the 0x0F is the ModRM byte.
      {"modrm", x86::VmfuncOverlap::kInModrm,
       [](x86::Assembler& a) { a.Raw({0x48, 0x69, 0x0f, 0x01, 0xd4, 0x00, 0x00}); }},
      // lea rbx, [rdi + rcx*1 + 0xD401] — the 0x0F is the SIB byte.
      {"sib", x86::VmfuncOverlap::kInSib,
       [](x86::Assembler& a) { a.Raw({0x48, 0x8d, 0x9c, 0x0f, 0x01, 0xd4, 0x00, 0x00}); }},
      // add rbx, [rdi + 0xD4010F] — the pattern sits in the displacement.
      {"disp", x86::VmfuncOverlap::kInDisp,
       [](x86::Assembler& a) { a.Raw({0x48, 0x03, 0x9f, 0x0f, 0x01, 0xd4, 0x00}); }},
      // mov eax, 0x0F000000 ends with 0F; add esp, edx is 01 D4. The 32-bit
      // add zero-extends RSP, so it is saved around the gadget.
      {"spans", x86::VmfuncOverlap::kSpans,
       [](x86::Assembler& a) {
         a.MovRR64(x86::Reg::kR9, x86::Reg::kRsp);
         a.MovRI32(x86::Reg::kRdx, 0);
         a.MovRI32(x86::Reg::kRax, 0x0f000000);
         a.Raw({0x01, 0xd4});
         a.MovRR64(x86::Reg::kRsp, x86::Reg::kR9);
       }},
  };

  x86::RewriteConfig config;
  config.code_base = kRwCodeBase;
  config.rewrite_page_base = kRwPageBase;

  for (const Embedding& e : kEmbeddings) {
    sb::Rng rng(static_cast<uint64_t>(GetParam()) * 6364136223846793005ULL +
                static_cast<uint64_t>(e.expected));
    x86::Assembler a;
    EmitFiller(a, rng, 2 + static_cast<int>(rng.Below(6)));
    e.plant(a);
    EmitFiller(a, rng, 2 + static_cast<int>(rng.Below(6)));
    a.Ret();
    const std::vector<uint8_t> code = a.Take();

    // The pre-rewrite scan sees the planted embedding with its class.
    const std::vector<x86::VmfuncHit> hits = x86::ScanForVmfunc(code);
    ASSERT_FALSE(hits.empty()) << e.name;
    bool classified = false;
    for (const x86::VmfuncHit& hit : hits) {
      classified |= hit.overlap == e.expected;
    }
    EXPECT_TRUE(classified) << e.name;

    // Post-rewrite: zero occurrences in the code and on the rewrite page.
    auto rewritten = x86::RewriteVmfunc(code, config);
    ASSERT_TRUE(rewritten.ok()) << e.name << ": " << rewritten.status().ToString();
    EXPECT_TRUE(x86::FindVmfuncBytes(rewritten->code).empty()) << e.name;
    EXPECT_TRUE(x86::FindVmfuncBytes(rewritten->rewrite_page).empty()) << e.name;
    ASSERT_EQ(rewritten->code.size(), code.size()) << e.name;

    // Behavioral equivalence (flags excluded: split arithmetic may differ).
    const EmuRun orig = RunProgram(code, {});
    const EmuRun rewr = RunProgram(rewritten->code, rewritten->rewrite_page);
    EXPECT_EQ(rewr.stop.reason, x86::StopReason::kRet) << e.name;
    EXPECT_EQ(rewr.stop.vmfunc_count, 0u) << e.name << ": rewritten code executed VMFUNC";
    if (e.expected == x86::VmfuncOverlap::kIsVmfunc) {
      // A true VMFUNC halts the emulator, so the original has no comparable
      // end state — the rewrite (NOP fill) must simply run through it.
      EXPECT_EQ(orig.stop.reason, x86::StopReason::kVmfunc) << e.name;
      continue;
    }
    ASSERT_EQ(orig.stop.reason, x86::StopReason::kRet) << e.name;
    for (int r = 0; r < x86::kNumRegs; ++r) {
      EXPECT_EQ(orig.state.regs[r], rewr.state.regs[r])
          << e.name << " reg " << x86::RegName(static_cast<x86::Reg>(r));
    }
    EXPECT_EQ(orig.data, rewr.data) << e.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteEmbeddingTest, ::testing::Range(0, 12));

// The Table 6 corpus (multi-MiB generated programs, including the call-imm
// pattern generator) rewrites to zero occurrences end to end.
TEST(RewriteScrubProperty, Table6CorpusRewritesToZeroOccurrences) {
  for (const apps::CorpusProgram& program : apps::BuildTable6Corpus(0xfeed)) {
    auto rewritten = x86::RewriteVmfunc(program.code, x86::RewriteConfig{});
    ASSERT_TRUE(rewritten.ok()) << program.name;
    EXPECT_TRUE(x86::FindVmfuncBytes(rewritten->code).empty()) << program.name;
    EXPECT_TRUE(x86::FindVmfuncBytes(rewritten->rewrite_page).empty()) << program.name;
  }
}

// ---- Executor determinism ----

TEST(ExecutorProperty, RunsAreDeterministic) {
  auto run_once = [] {
    hw::MachineConfig mc;
    mc.num_cores = 4;
    mc.ram_bytes = 1 * kGiB;
    hw::Machine machine(mc);
    sim::Executor exec(machine);
    sim::FifoResource lock;
    sb::Rng rng(42);
    for (int t = 0; t < 4; ++t) {
      const uint64_t step = 500 + rng.Below(1000);
      exec.AddThread("t" + std::to_string(t), t, [&lock, step](sim::SimThread& thread) {
        const uint64_t start = lock.Acquire(thread.core().cycles());
        thread.core().SyncClockTo(start + step);
        lock.Release(thread.core().cycles());
        return thread.iterations() < 19;
      });
    }
    exec.RunToCompletion();
    return exec.max_time();
  };
  const uint64_t a = run_once();
  const uint64_t b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

}  // namespace
