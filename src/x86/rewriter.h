// Binary rewriting of illegal VMFUNC occurrences (paper Section 5, Table 3).
//
// When a process registers with SkyBridge, the Subkernel scans its code pages
// and replaces every occurrence of the VMFUNC pattern (0F 01 D4) outside the
// trampoline with functionally equivalent instructions:
//
//   1. Opcode is VMFUNC           -> three NOPs.
//   2. Pattern spans instructions -> relocate the window to the rewrite page
//                                    and break the pattern with a NOP between
//                                    the spanning instructions.
//   3. 0x0F in ModRM or SIB       -> push/pop a scratch register, copy the
//                                    encoded base (or index) register into it
//                                    and re-encode the instruction with the
//                                    scratch register.
//   4. 0x0F in the displacement   -> compute part of the displacement into a
//                                    scratch register before the instruction.
//   5. 0x0F in the immediate      -> apply the instruction twice with split
//                                    immediates (or build the immediate in a
//                                    scratch register); jump-like immediates
//                                    are displacements that get new values
//                                    when the instruction moves to the
//                                    rewrite page.
//
// Instructions that grow do not fit in place, so the affected window is
// replaced by a JMP to a snippet on the *rewrite page* (mapped at 0x1000, the
// deliberately-unmapped second page), which ends with a JMP back — exactly
// the paper's Section 5.1 mechanism.
//
// Equivalence caveat (shared with the paper's Table 3): split-immediate
// arithmetic can leave different CF/OF values than the original single
// instruction. SkyBridge inherits ERIM's position that compilers do not emit
// code relying on flags across such boundaries.

#ifndef SRC_X86_REWRITER_H_
#define SRC_X86_REWRITER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/x86/scanner.h"

namespace x86 {

struct RewriteConfig {
  uint64_t code_base = 0x400000;        // VA where the code is mapped.
  uint64_t rewrite_page_base = 0x1000;  // VA of the rewrite page (paper 5.1).
  size_t rewrite_page_capacity = 16 * 4096;
  int max_iterations = 64;
  // The gate-instruction triple whose hits this pass scrubs: kVmfuncBytes
  // for the EPTP backend, kWrpkruBytes for the MPK backend (same 0F 01 /r
  // shape, so every Table 3 rewrite case applies unchanged). Whatever the
  // pass, no emitted snippet or code patch may hold either triple.
  const uint8_t* pattern = kVmfuncBytes;
};

struct RewriteStats {
  int nop_replaced = 0;       // C1: true VMFUNC instructions NOPed out.
  int windows_relocated = 0;  // Windows moved to the rewrite page.
  int snippets_emitted = 0;
  uint64_t scan_pages = 0;  // Code-page chunks scanned across all passes.
};

struct RewriteResult {
  std::vector<uint8_t> code;          // Rewritten code (same size as input).
  std::vector<uint8_t> rewrite_page;  // Snippet bytes for the rewrite page.
  RewriteStats stats;
};

// One Table 3 edit: scrubs `hit` (classified against the current `code`) in
// place, appending any snippet to `page`, whose first byte sits at
// config.rewrite_page_base. The step both drivers below repeat.
sb::Status RewriteHit(std::vector<uint8_t>& code, std::vector<uint8_t>& page,
                      const RewriteConfig& config, const VmfuncHit& hit, RewriteStats& stats);

// Rewrites until the code holds no `config.pattern` and the rewrite page no
// gate pattern.
sb::StatusOr<RewriteResult> RewriteVmfunc(std::span<const uint8_t> code,
                                          const RewriteConfig& config);

// ---- Per-page rewriting (staged registration, DESIGN.md section 17) ----

// One committed edit to the code image: the bytes at [code_off,
// code_off + bytes.size()) are replaced. Offsets are image-relative, so a
// recorded rewrite replays verbatim onto any identical image.
struct PagePatch {
  size_t code_off = 0;
  std::vector<uint8_t> bytes;
};

// Deterministic result of scrubbing the pattern occurrences owned by one
// 4 KiB code page: in-image patches plus the snippet bytes for that page's
// private rewrite-page sub-window (starting at config.rewrite_page_base).
struct PageRewrite {
  std::vector<PagePatch> patches;
  std::vector<uint8_t> snippets;
  RewriteStats stats;
};

// Rewrites only the hits whose pattern starts inside page `page_index` of
// `code`. The whole image is scanned each pass — instruction classification
// needs boundaries from the image start — but only hits owned by the page
// are handled. `config.rewrite_page_base` / `rewrite_page_capacity` describe
// the page's private snippet sub-window. Patches may spill a few bytes past
// the page edge when a rewrite window straddles it, which is why the cache
// key hashes the page plus boundary context.
//
// `starts` carries the image's instruction starts between calls, as in
// ScanForVmfunc: empty or exactly LinearSweep(code). A pass sweeps only
// when a hit needs classifying and `starts` is empty; each edit empties it.
// On success `starts` is empty or describes the rewritten image (`code`
// with the patches applied), so a caller scrubbing the pages of one image
// in turn passes it straight on; on failure it is cleared.
sb::StatusOr<PageRewrite> RewriteVmfuncPage(std::span<const uint8_t> code, size_t page_index,
                                            const RewriteConfig& config,
                                            std::vector<size_t>& starts);

}  // namespace x86

#endif  // SRC_X86_REWRITER_H_
