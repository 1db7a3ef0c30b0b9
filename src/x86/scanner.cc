#include "src/x86/scanner.h"

#include <algorithm>
#include <cstring>

#include "src/x86/decoder.h"

namespace x86 {

std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code) {
  return FindVmfuncBytes(code, ScanOptions{});
}

std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code, const ScanOptions& options) {
  std::vector<size_t> offsets;
  if (code.size() < 3) {
    return offsets;
  }
  if (options.stats != nullptr) {
    const size_t chunk = options.chunk_bytes == 0 ? 4096 : options.chunk_bytes;
    options.stats->pages += (code.size() + chunk - 1) / chunk;
  }
  // memchr-hop between 0x0F candidates; every candidate below limit has its
  // two trailing bytes inside the image.
  const uint8_t* pattern = options.pattern == nullptr ? kVmfuncBytes : options.pattern;
  const uint8_t* base = code.data();
  const size_t limit = code.size() - 2;
  size_t i = 0;
  while (i < limit) {
    const void* p = std::memchr(base + i, pattern[0], limit - i);
    if (p == nullptr) {
      break;
    }
    const size_t off = static_cast<size_t>(static_cast<const uint8_t*>(p) - base);
    if (base[off + 1] == pattern[1] && base[off + 2] == pattern[2]) {
      offsets.push_back(off);
    }
    i = off + 1;
  }
  return offsets;
}

std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code) {
  return ScanForVmfunc(code, ScanOptions{});
}

std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code, const ScanOptions& options) {
  std::vector<size_t> starts;
  return ScanForVmfunc(code, options, starts);
}

std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code, const ScanOptions& options,
                                     std::vector<size_t>& starts) {
  std::vector<VmfuncHit> hits;
  const std::vector<size_t> raw = FindVmfuncBytes(code, options);
  if (raw.empty()) {
    return hits;
  }
  if (starts.empty()) {
    starts = LinearSweep(code);
  }

  for (const size_t off : raw) {
    VmfuncHit hit;
    hit.pattern_off = off;
    // The instruction whose bytes contain `off`: the last start <= off.
    auto it = std::upper_bound(starts.begin(), starts.end(), off);
    const size_t insn_start = *std::prev(it);
    hit.insn_off = insn_start;

    const Insn insn = Decode(code, insn_start);
    if (!insn.valid) {
      hit.overlap = VmfuncOverlap::kUndecodable;
      hits.push_back(hit);
      continue;
    }
    if (off + 3 > insn_start + insn.length) {
      hit.overlap = VmfuncOverlap::kSpans;
      hits.push_back(hit);
      continue;
    }
    const size_t rel = off - insn_start;  // Field offsets are insn-relative.
    // Which gate mnemonic counts as "the pattern is the instruction itself"
    // depends on the triple being scanned (0F 01 D4 vs 0F 01 EF).
    const Mnemonic gate = (options.pattern != nullptr && options.pattern[2] == kWrpkruBytes[2])
                              ? Mnemonic::kWrpkru
                              : Mnemonic::kVmfunc;
    if (insn.mnemonic == gate && rel == insn.opcode_off) {
      hit.overlap = VmfuncOverlap::kIsVmfunc;
    } else if (insn.has_modrm && rel == insn.modrm_off) {
      hit.overlap = VmfuncOverlap::kInModrm;
    } else if (insn.has_sib && rel == insn.sib_off) {
      hit.overlap = VmfuncOverlap::kInSib;
    } else if (insn.disp_len > 0 && rel >= insn.disp_off && rel < insn.disp_off + insn.disp_len) {
      hit.overlap = VmfuncOverlap::kInDisp;
    } else if (insn.imm_len > 0 && rel >= insn.imm_off && rel < insn.imm_off + insn.imm_len) {
      hit.overlap = VmfuncOverlap::kInImm;
    } else {
      hit.overlap = VmfuncOverlap::kInOpcode;
    }
    hits.push_back(hit);
  }
  return hits;
}

}  // namespace x86
