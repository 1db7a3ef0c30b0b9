// VMFUNC occurrence scanner (paper Section 5.2).
//
// Finds every occurrence of the VMFUNC byte pattern (0F 01 D4) in a code
// region and classifies it against decoded instruction boundaries into the
// paper's three conditions:
//   C1 — the instruction is VMFUNC itself,
//   C2 — the pattern spans two or more instructions,
//   C3 — the pattern is embedded in a longer instruction's ModRM, SIB,
//        displacement or immediate field.
//
// The raw byte scan is a serial memchr hop between 0x0F candidates, counted
// in code-page chunks (ScanStats; skybridge.rewrite.scan_pages).

#ifndef SRC_X86_SCANNER_H_
#define SRC_X86_SCANNER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/x86/insn.h"

namespace x86 {

inline constexpr uint8_t kVmfuncBytes[3] = {0x0f, 0x01, 0xd4};
// The other scrubbed gate primitive: WRPKRU, used by the MPK crossing
// backend. Same three-byte 0F 01 /r shape, so scan and rewrite machinery is
// shared — ScanOptions::pattern selects which triple a pass looks for.
inline constexpr uint8_t kWrpkruBytes[3] = {0x0f, 0x01, 0xef};

struct VmfuncHit {
  size_t pattern_off = 0;  // Offset of the 0x0F byte.
  size_t insn_off = 0;     // Start of the instruction containing the 0x0F byte.
  VmfuncOverlap overlap = VmfuncOverlap::kUndecodable;
};

// Accounting for one or more scans (accumulated across calls).
struct ScanStats {
  uint64_t pages = 0;  // Chunks (code pages) scanned.
};

struct ScanOptions {
  size_t chunk_bytes = 4096;   // Accounting granularity (one code page).
  ScanStats* stats = nullptr;  // Optional accounting sink.
  // The three-byte gate pattern this pass hunts: kVmfuncBytes (default) or
  // kWrpkruBytes. Must point at three bytes starting with 0x0F.
  const uint8_t* pattern = kVmfuncBytes;
};

// Returns the raw offsets of every pattern triple (no decoding), in
// ascending offset order.
std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code);
std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code, const ScanOptions& options);

// Full scan: find and classify every occurrence.
std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code);
std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code, const ScanOptions& options);
// Same, reusing the instruction starts of `code` across scans of an
// unchanged image. `starts` is either empty — it is then filled with
// LinearSweep(code) the first time a hit needs classifying — or exactly
// LinearSweep(code). Clear it whenever `code` changes.
std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code, const ScanOptions& options,
                                     std::vector<size_t>& starts);

}  // namespace x86

#endif  // SRC_X86_SCANNER_H_
