// Differential test for the per-page rewriter's reused instruction sweep.
//
// RewriteVmfuncPage takes the image's instruction starts from its caller and
// re-sweeps only after an edit; its patches come from a block-skipping diff.
// The reference below is the straightforward algorithm it replaces: a fresh
// LinearSweep on every pass (inside ScanForVmfunc) and a byte-by-byte diff of
// the whole image. Every output must match it exactly — patches, snippets,
// RewriteStats including scan_pages, and the image after scrubbing all pages
// — and the starts handed back must describe the rewritten image. The
// registration-level half checks SkyBridge's own all-pages scrub (with and
// without rewrite-cache replays) against the reference: final image, window
// pages and the scan/rescan counter deltas.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/apps/corpus.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/skybridge/skybridge.h"
#include "src/x86/assembler.h"
#include "src/x86/decoder.h"
#include "src/x86/rewriter.h"
#include "src/x86/scanner.h"

namespace {

using sb::kPageSize;

// The per-page rewrite as it was before sweep reuse: re-scan (and so
// re-sweep) the whole working copy every pass, then diff byte by byte.
sb::StatusOr<x86::PageRewrite> ReferenceRewritePage(std::span<const uint8_t> code,
                                                    size_t page_index,
                                                    const x86::RewriteConfig& config) {
  x86::PageRewrite result;
  std::vector<uint8_t> working(code.begin(), code.end());
  x86::ScanStats scan_stats;
  x86::ScanOptions scan_options;
  scan_options.stats = &scan_stats;
  scan_options.pattern = config.pattern;
  x86::ScanOptions snippet_scan;
  snippet_scan.pattern = config.pattern;
  for (int iter = 0; iter < x86::kMaxRewriteIterations; ++iter) {
    const std::vector<x86::VmfuncHit> hits = x86::ScanForVmfunc(working, scan_options);
    result.stats.scan_pages = scan_stats.pages;
    const x86::VmfuncHit* owned = nullptr;
    for (const x86::VmfuncHit& hit : hits) {
      if (hit.pattern_off / kPageSize == page_index) {
        owned = &hit;
        break;
      }
    }
    if (owned == nullptr) {
      if (!x86::FindVmfuncBytes(result.snippets, snippet_scan).empty()) {
        return sb::Internal("rewrite sub-window contains the pattern after rewriting");
      }
      size_t i = 0;
      while (i < working.size()) {
        if (working[i] == code[i]) {
          ++i;
          continue;
        }
        size_t j = i;
        while (j < working.size() && working[j] != code[j]) {
          ++j;
        }
        x86::PagePatch patch;
        patch.code_off = i;
        patch.bytes.assign(working.begin() + static_cast<long>(i),
                           working.begin() + static_cast<long>(j));
        result.patches.push_back(std::move(patch));
        i = j;
      }
      return result;
    }
    SB_RETURN_IF_ERROR(x86::RewriteHit(working, result.snippets, config, *owned, result.stats));
  }
  return sb::Internal("rewriting did not converge");
}

uint32_t PatternId(const uint8_t* pattern) { return pattern == x86::kWrpkruBytes ? 1 : 0; }

// The registration's snippet sub-window of code page `page` for `pattern`.
uint64_t WindowVa(const uint8_t* pattern, size_t page) {
  return mk::kRewritePageVa + (16 * PatternId(pattern) + page) * kPageSize;
}

x86::RewriteConfig PageConfig(const uint8_t* pattern, size_t page) {
  x86::RewriteConfig config;
  config.code_base = mk::kCodeVa;
  config.rewrite_page_base = WindowVa(pattern, page);
  config.rewrite_page_capacity = kPageSize;
  config.pattern = pattern;
  return config;
}

void ApplyPatches(std::vector<uint8_t>& image, const x86::PageRewrite& pr) {
  for (const x86::PagePatch& patch : pr.patches) {
    ASSERT_LE(patch.code_off + patch.bytes.size(), image.size());
    std::copy(patch.bytes.begin(), patch.bytes.end(),
              image.begin() + static_cast<long>(patch.code_off));
  }
}

void ExpectSameRewrite(const x86::PageRewrite& got, const x86::PageRewrite& want,
                       const std::string& where) {
  ASSERT_EQ(got.patches.size(), want.patches.size()) << where;
  for (size_t i = 0; i < got.patches.size(); ++i) {
    EXPECT_EQ(got.patches[i].code_off, want.patches[i].code_off) << where << " patch " << i;
    EXPECT_EQ(got.patches[i].bytes, want.patches[i].bytes) << where << " patch " << i;
  }
  EXPECT_EQ(got.snippets, want.snippets) << where;
  EXPECT_EQ(got.stats.nop_replaced, want.stats.nop_replaced) << where;
  EXPECT_EQ(got.stats.windows_relocated, want.stats.windows_relocated) << where;
  EXPECT_EQ(got.stats.snippets_emitted, want.stats.snippets_emitted) << where;
  EXPECT_EQ(got.stats.scan_pages, want.stats.scan_pages) << where;
}

// Scrubs every page of `image` in turn for `pattern`, both ways, carrying
// the starts from page to page as SkyBridge does, and compares each page's
// rewrite and the final images. Returns the number of pages that patched.
size_t CheckAllPages(const std::vector<uint8_t>& image, const uint8_t* pattern,
                     const std::string& name) {
  const size_t pages = (image.size() + kPageSize - 1) / kPageSize;
  std::vector<uint8_t> fast = image;
  std::vector<uint8_t> reference = image;
  std::vector<size_t> starts;
  size_t patched = 0;
  for (size_t p = 0; p < pages; ++p) {
    const std::string where = name + " page " + std::to_string(p);
    const x86::RewriteConfig config = PageConfig(pattern, p);
    auto want = ReferenceRewritePage(reference, p, config);
    auto got = x86::RewriteVmfuncPage(fast, p, config, starts);
    EXPECT_EQ(got.status().code(), want.status().code()) << where;
    if (!got.ok() || !want.ok()) {
      ADD_FAILURE() << where << ": " << got.status().ToString() << " / "
                    << want.status().ToString();
      return patched;
    }
    ExpectSameRewrite(*got, *want, where);
    ApplyPatches(fast, *got);
    ApplyPatches(reference, *want);
    patched += got->patches.empty() ? 0 : 1;
    // The handed-back starts are either absent or those of the image the
    // next page will see.
    if (!starts.empty()) {
      EXPECT_EQ(starts, x86::LinearSweep(fast)) << where << ": stale instruction starts";
    }
  }
  EXPECT_EQ(fast, reference) << name;
  x86::ScanOptions options;
  options.pattern = pattern;
  EXPECT_TRUE(x86::FindVmfuncBytes(fast, options).empty()) << name;
  return patched;
}

// ---- Seeded images with planted Table 3 cases ----

// One instruction (or instruction pair, for the spanning case) whose bytes
// embed the three-byte `pattern`, covering every Table 3 row.
std::vector<uint8_t> Gadget(int kind, const uint8_t* p) {
  const int32_t imm =
      static_cast<int32_t>(p[0] | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16));
  x86::Assembler a;
  switch (kind) {
    case 0:  // C1: the gate instruction itself.
      return {p[0], p[1], p[2]};
    case 1:  // ModRM: imul rcx, [rdi], imm32.
      return {0x48, 0x69, p[0], p[1], p[2], 0x00, 0x00};
    case 2:  // SIB: lea rbx, [rdi + rcx*1 + disp32].
      return {0x48, 0x8d, 0x9c, p[0], p[1], p[2], 0x00, 0x00};
    case 3:  // Displacement: add rbx, [rdi + disp32].
      return {0x48, 0x03, 0x9f, p[0], p[1], p[2], 0x00};
    case 4:
      a.AddRI(x86::Reg::kRax, imm);
      break;
    case 5:
      a.MovRI32(x86::Reg::kRcx, static_cast<uint32_t>(imm));
      break;
    case 6:
      a.CmpRI(x86::Reg::kRdx, imm);
      break;
    case 7:  // test rbx, imm32.
      return {0x48, 0xf7, 0xc3, p[0], p[1], p[2], 0x00};
    case 8:
      a.ImulRRI(x86::Reg::kRbx, x86::Reg::kRcx, imm);
      break;
    case 9:  // push imm32.
      return {0x68, p[0], p[1], p[2], 0x00};
    case 10:  // Jump-like immediate: call rel32.
      a.CallRel32(imm);
      break;
    case 11:  // mov qword [rdi + 8], imm32.
      return {0x48, 0xc7, 0x87, 0x08, 0x00, 0x00, 0x00, p[0], p[1], p[2], 0x00};
    case 12:
      a.XorRI(x86::Reg::kRbx, imm);
      break;
    default:  // C2: mov eax, 0x0F000000 ends with 0F; the next insn starts p[1] p[2].
      a.MovRI32(x86::Reg::kRax, uint32_t{p[0]} << 24);
      a.Raw({p[1], p[2]});
      break;
  }
  return a.Take();
}
constexpr int kGadgetKinds = 14;

// A `pages`-page instruction stream with gadgets planted mid-page, just
// before page edges (so windows straddle them) and on both sides of an edge
// (hits on adjacent pages). Filler is the corpus generator's instruction mix.
std::vector<uint8_t> PlantedImage(uint64_t seed, size_t pages, const uint8_t* pattern) {
  sb::Rng rng(seed);
  std::vector<size_t> at;
  for (size_t page = 0; page < pages; ++page) {
    const size_t base = page * kPageSize;
    if (rng.Below(2) == 0) {
      at.push_back(base + 256 + rng.Below(kPageSize - 512));
    }
    if (page + 1 < pages) {
      const size_t edge = base + kPageSize;
      switch (rng.Below(3)) {
        case 0:  // Straddles the edge.
          at.push_back(edge - 1 - rng.Below(8));
          break;
        case 1:  // One hit each side of the edge.
          at.push_back(edge - 12 - rng.Below(8));
          at.push_back(edge + rng.Below(6));
          break;
        default:
          break;
      }
    }
  }
  std::vector<uint8_t> image;
  auto fill_to = [&](size_t off) {
    if (off <= image.size()) {
      return;
    }
    const std::vector<uint8_t> filler = apps::GenerateProgram(rng, off - image.size());
    image.insert(image.end(), filler.begin(), filler.end());
    image.resize(off, 0x90);
  };
  for (const size_t off : at) {
    fill_to(off);
    const std::vector<uint8_t> g = Gadget(static_cast<int>(rng.Below(kGadgetKinds)), pattern);
    image.insert(image.end(), g.begin(), g.end());
  }
  fill_to(pages * kPageSize - 64);
  image.resize(pages * kPageSize, 0x90);
  image.back() = 0xc3;
  return image;
}

class PageRewriteDiffTest : public ::testing::TestWithParam<int> {};

TEST_P(PageRewriteDiffTest, PlantedImagesMatchTheFreshSweepReference) {
  for (const uint8_t* pattern : {x86::kVmfuncBytes, x86::kWrpkruBytes}) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x9e37 + PatternId(pattern);
    const std::vector<uint8_t> image = PlantedImage(seed, 16, pattern);
    const size_t patched =
        CheckAllPages(image, pattern, "seed " + std::to_string(GetParam()) + " pattern " +
                                          std::to_string(PatternId(pattern)));
    EXPECT_GE(patched, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageRewriteDiffTest, ::testing::Range(0, 12));

// Every Table 3 case at each position relative to a page edge, for both
// patterns: ending on an edge, straddling it by one byte, starting one byte
// before it, mid-page, starting just past an edge, and one hit on each side
// of an edge.
TEST(PageRewriteDiff, EveryTable3CaseAtEveryEdgeOffset) {
  for (const uint8_t* pattern : {x86::kVmfuncBytes, x86::kWrpkruBytes}) {
    for (int kind = 0; kind < kGadgetKinds; ++kind) {
      std::vector<uint8_t> image(8 * kPageSize, 0x90);
      const std::vector<uint8_t> g = Gadget(kind, pattern);
      const size_t offs[] = {1 * kPageSize - g.size(),     2 * kPageSize - g.size() + 1,
                             3 * kPageSize - 1,            4 * kPageSize + 2048,
                             5 * kPageSize + 1,            6 * kPageSize - g.size() - 4,
                             6 * kPageSize + 2};
      for (const size_t off : offs) {
        std::copy(g.begin(), g.end(), image.begin() + static_cast<long>(off));
      }
      image.back() = 0xc3;
      CheckAllPages(image, pattern,
                    "kind " + std::to_string(kind) + " pattern " +
                        std::to_string(PatternId(pattern)));
    }
  }
}

// The Table 6 corpus, one instance per program so `ctest -j` spreads the
// sweep; the 2.6 MiB vmlinux image is the longest. Each process reads the
// names from the build's dump of apps::BuildTable6Corpus(0x5eed)
// (table6_corpus_dump.cc) and the code of its own program only, rather than
// generating 23 MB; Table6CorpusFileMatchesTheGenerator checks the dump
// against the generator.
struct CorpusRecord {
  std::string name;
  std::streamoff code_at = 0;  // File offset of the code bytes.
  uint64_t code_len = 0;
};

const std::vector<CorpusRecord>& Table6Records() {
  static const auto* records = [] {
    auto* out = new std::vector<CorpusRecord>();
    std::ifstream in(SB_TABLE6_CORPUS_FILE, std::ios::binary);
    uint32_t name_len = 0;
    while (in.read(reinterpret_cast<char*>(&name_len), sizeof(name_len))) {
      CorpusRecord& record = out->emplace_back();
      record.name.resize(name_len);
      in.read(record.name.data(), name_len);
      in.read(reinterpret_cast<char*>(&record.code_len), sizeof(record.code_len));
      record.code_at = in.tellg();
      in.seekg(static_cast<std::streamoff>(record.code_len), std::ios::cur);
    }
    SB_CHECK(in.eof() && !out->empty()) << "unreadable corpus " << SB_TABLE6_CORPUS_FILE;
    return out;
  }();
  return *records;
}

std::vector<uint8_t> ReadCode(const CorpusRecord& record) {
  std::ifstream in(SB_TABLE6_CORPUS_FILE, std::ios::binary);
  in.seekg(record.code_at);
  std::vector<uint8_t> code(record.code_len);
  in.read(reinterpret_cast<char*>(code.data()), static_cast<std::streamsize>(code.size()));
  SB_CHECK(in.good()) << "short corpus " << SB_TABLE6_CORPUS_FILE << " at " << record.name;
  return code;
}

TEST(PageRewriteDiff, Table6CorpusFileMatchesTheGenerator) {
  const std::vector<apps::CorpusProgram> want = apps::BuildTable6Corpus(0x5eed);
  const std::vector<CorpusRecord>& got = Table6Records();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_TRUE(ReadCode(got[i]) == want[i].code) << want[i].name;
  }
}

class Table6CorpusDiffTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Table6CorpusDiffTest, MatchesTheFreshSweepReference) {
  const CorpusRecord& record = Table6Records()[GetParam()];
  CheckAllPages(ReadCode(record), x86::kVmfuncBytes, record.name);
}

INSTANTIATE_TEST_SUITE_P(Programs, Table6CorpusDiffTest,
                         ::testing::Range<size_t>(0, Table6Records().size()),
                         [](const ::testing::TestParamInfo<size_t>& param) {
                           // Test names take only letters, digits and '_'.
                           std::string name = Table6Records()[param.param].name;
                           for (char& c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---- Registration level: SkyBridge's scrub against the reference ----

// Mirrors SkyBridge's all-pages scrub with the reference page rewrite: a
// byte-keyed rewrite cache, the window pages and the counters.
struct ReferenceScrub {
  std::map<std::tuple<uint32_t, size_t, std::vector<uint8_t>>, x86::PageRewrite> cache;
  bool cached = true;
  uint64_t scan_pages = 0;
  uint64_t rescanned = 0;

  void Run(std::vector<uint8_t>& image, const uint8_t* pattern,
           std::map<uint64_t, std::vector<uint8_t>>& windows) {
    const size_t pages = (image.size() + kPageSize - 1) / kPageSize;
    for (size_t p = 0; p < pages; ++p) {
      const std::span<const uint8_t> ctx = x86::CodePageContext(image, p);
      const auto key = std::make_tuple(PatternId(pattern), p,
                                       std::vector<uint8_t>(ctx.begin(), ctx.end()));
      x86::PageRewrite pr;
      if (auto it = cache.find(key); cached && it != cache.end()) {
        pr = it->second;
      } else {
        auto fresh = ReferenceRewritePage(image, p, PageConfig(pattern, p));
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        pr = *fresh;
        ++rescanned;
        scan_pages += pr.stats.scan_pages;
        if (cached) {
          cache[key] = pr;
        }
      }
      ApplyPatches(image, pr);
      if (!pr.snippets.empty()) {
        windows[WindowVa(pattern, p)] = pr.snippets;
      }
    }
  }
};

class RegistrationDiffTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    hw::MachineConfig mc;
    mc.num_cores = 2;
    mc.ram_bytes = 2 * sb::kGiB;
    machine_ = std::make_unique<hw::Machine>(mc);
    kernel_ = std::make_unique<mk::Kernel>(*machine_, mk::Sel4Profile());
    ASSERT_TRUE(kernel_->Boot().ok());
    skybridge::SkyBridgeConfig config;
    config.rewrite_cache_entries = GetParam() ? 4096 : 0;
    sky_ = std::make_unique<skybridge::SkyBridge>(*kernel_, config);
    reference_.cached = GetParam();
  }

  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

  // Registers a server with `image` on `backend` and checks the result
  // against the reference scrub of the same image.
  void RegisterAndCompare(const std::string& name, const std::vector<uint8_t>& image,
                          skybridge::CrossingBackendKind backend) {
    const uint64_t scan0 = Metric("skybridge.rewrite.scan_pages");
    const uint64_t rescanned0 = Metric("skybridge.registration.pages_rescanned");
    const uint64_t ref_scan0 = reference_.scan_pages;
    const uint64_t ref_rescanned0 = reference_.rescanned;
    mk::Process* server = kernel_->CreateProcessWithImage(name, image).value();
    ASSERT_TRUE(sky_->RegisterServer(server, 4, [](mk::CallEnv& env) { return env.request; },
                                     backend)
                    .ok());
    auto snapshot = sky_->SnapshotRegistration(server);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

    std::vector<uint8_t> want = image;
    std::map<uint64_t, std::vector<uint8_t>> want_windows;
    for (const uint8_t* pattern : {x86::kVmfuncBytes, x86::kWrpkruBytes}) {
      if ((snapshot->prepared_mask & (1u << PatternId(pattern))) != 0) {
        reference_.Run(want, pattern, want_windows);
      }
    }
    EXPECT_EQ(server->code_image(), want) << name;
    const std::map<uint64_t, std::vector<uint8_t>> got_windows(snapshot->window_pages.begin(),
                                                               snapshot->window_pages.end());
    EXPECT_EQ(got_windows, want_windows) << name;
    EXPECT_EQ(Metric("skybridge.rewrite.scan_pages") - scan0, reference_.scan_pages - ref_scan0)
        << name;
    EXPECT_EQ(Metric("skybridge.registration.pages_rescanned") - rescanned0,
              reference_.rescanned - ref_rescanned0)
        << name;
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<skybridge::SkyBridge> sky_;
  ReferenceScrub reference_;
};

TEST_P(RegistrationDiffTest, ScrubMatchesTheReferenceIncludingReplays) {
  for (int seed = 0; seed < 3; ++seed) {
    const std::vector<uint8_t> image = PlantedImage(0xd1ff + seed, 16, x86::kVmfuncBytes);
    RegisterAndCompare("eptp-" + std::to_string(seed), image,
                       skybridge::CrossingBackendKind::kEptp);
    // A sibling that differs in one page: with the cache on, the other pages
    // replay (their patches edit the image between rescans).
    std::vector<uint8_t> sibling = image;
    const std::vector<uint8_t> g = Gadget(seed, x86::kVmfuncBytes);
    std::copy(g.begin(), g.end(), sibling.begin() + static_cast<long>(9 * kPageSize + 3000));
    RegisterAndCompare("sibling-" + std::to_string(seed), sibling,
                       skybridge::CrossingBackendKind::kEptp);
  }
  // Both patterns: the MPK backend scrubs VMFUNC and then WRPKRU.
  std::vector<uint8_t> both = PlantedImage(0xb0b, 16, x86::kWrpkruBytes);
  const std::vector<uint8_t> vmfunc = Gadget(4, x86::kVmfuncBytes);
  std::copy(vmfunc.begin(), vmfunc.end(), both.begin() + static_cast<long>(5 * kPageSize - 2));
  RegisterAndCompare("mpk", both, skybridge::CrossingBackendKind::kMpk);
}

INSTANTIATE_TEST_SUITE_P(Cache, RegistrationDiffTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? std::string("on") : std::string("off");
                         });

}  // namespace
