#include "src/x86/scanner.h"

#include <algorithm>
#include <cstring>

#include "src/base/thread_pool.h"
#include "src/x86/decoder.h"

namespace x86 {
namespace {

// Appends every pattern start in [begin, limit) to `out`, memchr-hopping
// between 0x0F candidates. The caller guarantees limit + 2 <= code.size(),
// so reading the two trailing bytes of a straddling candidate is safe.
void ScanRange(std::span<const uint8_t> code, size_t begin, size_t limit,
               const uint8_t* pattern, std::vector<size_t>& out) {
  const uint8_t* base = code.data();
  size_t i = begin;
  while (i < limit) {
    const void* p = std::memchr(base + i, pattern[0], limit - i);
    if (p == nullptr) {
      return;
    }
    const size_t off = static_cast<size_t>(static_cast<const uint8_t*>(p) - base);
    if (base[off + 1] == pattern[1] && base[off + 2] == pattern[2]) {
      out.push_back(off);
    }
    i = off + 1;
  }
}

}  // namespace

std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code) {
  return FindVmfuncBytes(code, ScanOptions{});
}

std::vector<size_t> FindVmfuncBytes(std::span<const uint8_t> code, const ScanOptions& options) {
  std::vector<size_t> offsets;
  if (code.size() < 3) {
    return offsets;
  }
  const size_t search_end = code.size() - 2;  // Valid pattern starts: [0, search_end).
  const size_t chunk = options.chunk_bytes == 0 ? 4096 : options.chunk_bytes;
  const size_t num_chunks = (code.size() + chunk - 1) / chunk;
  if (options.stats != nullptr) {
    options.stats->AddPages(num_chunks);
  }
  const uint8_t* pattern = options.pattern == nullptr ? kVmfuncBytes : options.pattern;
  if (options.pool == nullptr || num_chunks < 2) {
    ScanRange(code, 0, search_end, pattern, offsets);
    return offsets;
  }
  // One bucket per code page; chunk c owns the starts in [c*chunk,
  // (c+1)*chunk). Buckets are disjoint and internally ascending, so the
  // in-order merge reproduces the serial scan byte for byte.
  std::vector<std::vector<size_t>> buckets(num_chunks);
  options.pool->ParallelFor(num_chunks, [&](size_t c) {
    const size_t begin = c * chunk;
    const size_t limit = std::min((c + 1) * chunk, search_end);
    if (begin < limit) {
      ScanRange(code, begin, limit, pattern, buckets[c]);
    }
  });
  for (const std::vector<size_t>& bucket : buckets) {
    offsets.insert(offsets.end(), bucket.begin(), bucket.end());
  }
  return offsets;
}

std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code) {
  return ScanForVmfunc(code, ScanOptions{});
}

std::vector<VmfuncHit> ScanForVmfunc(std::span<const uint8_t> code, const ScanOptions& options) {
  std::vector<VmfuncHit> hits;
  const std::vector<size_t> raw = FindVmfuncBytes(code, options);
  if (raw.empty()) {
    return hits;
  }
  const std::vector<size_t> starts = LinearSweep(code);

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
