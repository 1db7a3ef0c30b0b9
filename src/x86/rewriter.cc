#include "src/x86/rewriter.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/base/logging.h"
#include "src/x86/assembler.h"
#include "src/x86/decoder.h"

namespace x86 {
namespace {

constexpr uint8_t kNopByte = 0x90;

int64_t SignExtend(uint64_t v, unsigned bits) {
  if (bits >= 64) {
    return static_cast<int64_t>(v);
  }
  const uint64_t sign = 1ULL << (bits - 1);
  return static_cast<int64_t>((v ^ sign) - sign);
}

uint64_t ReadLittle(std::span<const uint8_t> bytes, size_t off, unsigned len) {
  uint64_t v = 0;
  for (unsigned i = 0; i < len; ++i) {
    v |= static_cast<uint64_t>(bytes[off + i]) << (8 * i);
  }
  return v;
}

// True iff `bytes` hold any gate pattern, whichever pass is emitting them:
// a VMFUNC pass must not hand out a WRPKRU, nor a WRPKRU pass a VMFUNC.
bool ContainsGatePattern(std::span<const uint8_t> bytes) {
  for (size_t i = 0; i + 2 < bytes.size(); ++i) {
    if (bytes[i] == 0x0f && bytes[i + 1] == 0x01 &&
        (bytes[i + 2] == kVmfuncBytes[2] || bytes[i + 2] == kWrpkruBytes[2])) {
      return true;
    }
  }
  return false;
}

// ---- Memory-operand parsing and generic re-encoding ----

struct MemOp {
  bool rip_relative = false;
  bool has_base = false;
  uint8_t base = 0;
  bool has_index = false;
  uint8_t index = 0;
  uint8_t scale_log2 = 0;
  int32_t disp = 0;
};

sb::StatusOr<MemOp> ParseMem(const Insn& insn, std::span<const uint8_t> bytes) {
  if (!insn.has_modrm || insn.modrm_mod() == 3) {
    return sb::InvalidArgument("not a memory operand");
  }
  MemOp op;
  if (insn.disp_len > 0) {
    op.disp = static_cast<int32_t>(
        SignExtend(ReadLittle(bytes, insn.disp_off, insn.disp_len), insn.disp_len * 8u));
  }
  if (insn.is_rip_relative()) {
    op.rip_relative = true;
    return op;
  }
  if (insn.has_sib) {
    const uint8_t mod = insn.modrm_mod();
    if (!((insn.sib & 7) == 5 && mod == 0)) {
      op.has_base = true;
      op.base = insn.sib_base();
    }
    if ((insn.sib & 0x38) != 0x20) {
      op.has_index = true;
      op.index = insn.sib_index();
      op.scale_log2 = insn.sib_scale();
    }
  } else {
    op.has_base = true;
    op.base = insn.modrm_rm();
  }
  return op;
}

// True if the instruction's non-memory operand encoding (prefixes/opcode) is
// something we can re-emit verbatim (i.e. no VEX).
bool ReencodableEncoding(const Insn& insn) {
  const size_t expected_opcode_off =
      static_cast<size_t>(insn.num_prefixes) + (insn.rex != 0 ? 1 : 0);
  return insn.opcode_off == expected_opcode_off;
}

// Emits a copy of `insn` with its memory operand replaced by `op` (always
// encoded as mod=10 disp32 or the no-base SIB form). Immediate bytes are
// copied unless `override_imm` is provided (length preserved).
void EmitWithMem(std::vector<uint8_t>& out, const Insn& insn, std::span<const uint8_t> bytes,
                 const MemOp& op, const std::optional<uint64_t>& override_imm = std::nullopt) {
  SB_CHECK(!op.rip_relative) << "EmitWithMem cannot encode RIP-relative operands";
  // Legacy prefixes.
  for (size_t i = 0; i < insn.num_prefixes; ++i) {
    out.push_back(bytes[i]);
  }
  // REX: keep W and R, recompute B and X for the new operand.
  uint8_t rex = insn.rex & 0x4c;  // 0x40 | W | R if present.
  if (op.has_base && op.base >= 8) {
    rex |= 1;
  }
  if (op.has_index && op.index >= 8) {
    rex |= 2;
  }
  if (rex != 0 || insn.rex != 0) {
    out.push_back(static_cast<uint8_t>(0x40 | (rex & 0xf)));
  }
  // Opcode bytes.
  for (size_t i = 0; i < insn.opcode_len; ++i) {
    out.push_back(bytes[insn.opcode_off + i]);
  }
  // ModRM / SIB / disp32.
  const uint8_t reg_low = (insn.modrm >> 3) & 7;
  const bool need_sib = op.has_index || !op.has_base || (op.base & 7) == 4;
  if (!need_sib) {
    out.push_back(static_cast<uint8_t>(0x80 | (reg_low << 3) | (op.base & 7)));
  } else {
    const uint8_t mod = op.has_base ? 0x80 : 0x00;
    out.push_back(static_cast<uint8_t>(mod | (reg_low << 3) | 4));
    const uint8_t sib_base = op.has_base ? (op.base & 7) : 5;
    const uint8_t sib_index = op.has_index ? (op.index & 7) : 4;
    out.push_back(static_cast<uint8_t>((op.scale_log2 << 6) | (sib_index << 3) | sib_base));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(static_cast<uint32_t>(op.disp) >> (8 * i)));
  }
  // Immediate.
  if (insn.imm_len > 0) {
    const uint64_t imm =
        override_imm.has_value() ? *override_imm : ReadLittle(bytes, insn.imm_off, insn.imm_len);
    for (unsigned i = 0; i < insn.imm_len; ++i) {
      out.push_back(static_cast<uint8_t>(imm >> (8 * i)));
    }
  }
}

// Emits a copy of `insn` with only the immediate replaced.
void EmitWithImm(std::vector<uint8_t>& out, const Insn& insn, std::span<const uint8_t> bytes,
                 uint64_t new_imm) {
  for (size_t i = 0; i < insn.imm_off; ++i) {
    out.push_back(bytes[i]);
  }
  for (unsigned i = 0; i < insn.imm_len; ++i) {
    out.push_back(static_cast<uint8_t>(new_imm >> (8 * i)));
  }
}

// Registers the instruction references (for scratch selection).
void CollectUsedRegs(const Insn& insn, bool used[kNumRegs]) {
  if (insn.has_modrm) {
    used[insn.modrm_reg()] = true;
    if (insn.modrm_mod() == 3) {
      used[insn.modrm_rm()] = true;
    } else if (insn.has_sib) {
      used[insn.sib_base()] = true;
      used[insn.sib_index()] = true;
    } else if (!insn.is_rip_relative()) {
      used[insn.modrm_rm()] = true;
    }
  }
  used[static_cast<size_t>(Reg::kRsp)] = true;  // Never a scratch.
  used[0] = used[0] || insn.mnemonic == Mnemonic::kTest;  // A8/A9 use rax.
}

sb::StatusOr<Reg> PickScratch(const Insn& insn, int variant) {
  bool used[kNumRegs] = {};
  CollectUsedRegs(insn, used);
  static const Reg kCandidates[] = {Reg::kRax, Reg::kRcx, Reg::kRdx, Reg::kRbx,
                                    Reg::kRsi, Reg::kRdi, Reg::kR8,  Reg::kR9};
  int found = 0;
  for (const Reg r : kCandidates) {
    if (!used[static_cast<size_t>(r)]) {
      if (found == variant % 4) {
        return r;
      }
      ++found;
    }
  }
  for (const Reg r : kCandidates) {
    if (!used[static_cast<size_t>(r)]) {
      return r;
    }
  }
  return sb::ResourceExhausted("no scratch register available");
}

// Builds `scratch = value` (exact 64-bit value) without touching flags:
// REX.W C7 (sign-extended imm32) or B8+r imm64, then LEA to adjust. The
// split avoids the VMFUNC pattern in the emitted immediates.
void EmitBuildScratch(Assembler& a, Reg scratch, uint64_t value, int variant) {
  const int64_t deltas[] = {0x1100, -0x1100, 0x730017, -0x730017, 0x2, -0x2, 0x55001, -0x55001};
  const int64_t delta = deltas[variant % 8];
  const uint64_t part = value - static_cast<uint64_t>(delta);
  a.MovRI64(scratch, part);
  a.Lea(scratch, scratch, Assembler::kNoIndex, 1, static_cast<int32_t>(delta));
}

// ---- Per-case transforms. Each emits into `out`; `variant` perturbs the
// choices so the caller can retry until the emission is pattern-free. ----

sb::Status TransformRegSubstitution(std::vector<uint8_t>& out, const Insn& insn,
                                    std::span<const uint8_t> bytes, int variant) {
  if (!ReencodableEncoding(insn)) {
    return sb::Unimplemented("cannot re-encode instruction with VEX/odd prefixes");
  }
  SB_ASSIGN_OR_RETURN(MemOp op, ParseMem(insn, bytes));
  if (op.rip_relative) {
    return sb::Unimplemented("register substitution on RIP-relative operand");
  }
  SB_ASSIGN_OR_RETURN(const Reg scratch, PickScratch(insn, variant));
  Assembler a;
  a.PushR(scratch);
  const bool replace_base = op.has_base;
  const Reg victim = static_cast<Reg>(replace_base ? op.base : op.index);
  a.MovRR64(scratch, victim);
  // The push moved RSP; compensate if RSP is the register being copied.
  if (victim == Reg::kRsp) {
    a.AddRI(scratch, 8);
  }
  MemOp new_op = op;
  if (replace_base) {
    new_op.base = static_cast<uint8_t>(scratch);
  } else {
    new_op.index = static_cast<uint8_t>(scratch);
  }
  std::vector<uint8_t> body;
  EmitWithMem(body, insn, bytes, new_op);
  a.Append(body);
  a.PopR(scratch);
  out.insert(out.end(), a.bytes().begin(), a.bytes().end());
  return sb::OkStatus();
}

sb::Status TransformDispSplit(std::vector<uint8_t>& out, const Insn& insn,
                              std::span<const uint8_t> bytes, int variant) {
  if (!ReencodableEncoding(insn)) {
    return sb::Unimplemented("cannot re-encode instruction with VEX/odd prefixes");
  }
  SB_ASSIGN_OR_RETURN(MemOp op, ParseMem(insn, bytes));
  if (op.rip_relative) {
    // Handled by relocation (the displacement is recomputed when moved).
    return sb::Unimplemented("disp split on RIP-relative operand");
  }
  if (!op.has_base && !op.has_index) {
    return sb::Unimplemented("disp split of absolute addressing");
  }
  SB_ASSIGN_OR_RETURN(const Reg scratch, PickScratch(insn, variant));
  const int64_t deltas[] = {0x11000, -0x11000, 0x777, -0x777, 0x1100000, -0x1100000, 0x3, -0x3};
  const int64_t delta = deltas[variant % 8];
  const int64_t new_disp = static_cast<int64_t>(op.disp) - delta;
  if (new_disp < INT32_MIN || new_disp > INT32_MAX) {
    return sb::OutOfRange("displacement split overflows int32");
  }
  Assembler a;
  a.PushR(scratch);
  MemOp new_op = op;
  if (op.has_base) {
    a.MovRR64(scratch, static_cast<Reg>(op.base));
    const int64_t compensation = op.base == static_cast<uint8_t>(Reg::kRsp) ? 8 : 0;
    a.AddRI(scratch, static_cast<int32_t>(delta + compensation));
    new_op.base = static_cast<uint8_t>(scratch);
  } else {
    // No base, only a scaled index: fold index*scale into the scratch with
    // flag-free LEA doublings, then absorb the delta.
    a.MovRR64(scratch, static_cast<Reg>(op.index));
    for (uint8_t s = 0; s < op.scale_log2; ++s) {
      a.Lea(scratch, scratch, static_cast<int>(scratch), 1, 0);
    }
    a.Lea(scratch, scratch, Assembler::kNoIndex, 1, static_cast<int32_t>(delta));
    new_op.base = static_cast<uint8_t>(scratch);
    new_op.has_base = true;
    new_op.has_index = false;
    new_op.scale_log2 = 0;
  }
  new_op.disp = static_cast<int32_t>(new_disp);
  std::vector<uint8_t> body;
  EmitWithMem(body, insn, bytes, new_op);
  a.Append(body);
  a.PopR(scratch);
  out.insert(out.end(), a.bytes().begin(), a.bytes().end());
  return sb::OkStatus();
}

// Split immediates for ADD/SUB/OR/AND/XOR applied twice (Table 3 row 5).
sb::Status TransformImmTwice(std::vector<uint8_t>& out, const Insn& insn,
                             std::span<const uint8_t> bytes, int variant) {
  const uint32_t imm = static_cast<uint32_t>(ReadLittle(bytes, insn.imm_off, insn.imm_len));
  if (insn.imm_len != 4) {
    return sb::Unimplemented("imm split requires a 4-byte immediate");
  }
  uint32_t a_val = 0;
  uint32_t b_val = 0;
  const int k = variant % 4;  // Which byte to carve out.
  switch (insn.mnemonic) {
    case Mnemonic::kAdd:
    case Mnemonic::kSub: {
      const int64_t deltas[] = {0x1100, 0x730017, 0x2, 0x55001};
      const int64_t delta = deltas[variant % 4];
      const int64_t rest = static_cast<int64_t>(static_cast<int32_t>(imm)) - delta;
      if (rest < INT32_MIN || rest > INT32_MAX) {
        return sb::OutOfRange("imm split overflows");
      }
      a_val = static_cast<uint32_t>(static_cast<int32_t>(rest));
      b_val = static_cast<uint32_t>(delta);
      break;
    }
    case Mnemonic::kOr: {
      const uint32_t mask = 0xffU << (8 * k);
      a_val = imm & ~mask;
      b_val = imm & mask;
      break;
    }
    case Mnemonic::kAnd: {
      const uint32_t mask = 0xffU << (8 * k);
      a_val = imm | mask;
      b_val = imm | ~mask;
      break;
    }
    case Mnemonic::kXor: {
      const uint32_t bit = 1U << (8 * k + (variant % 3));
      if (8 * k + (variant % 3) >= 31) {
        return sb::OutOfRange("xor bit choice flips the sign");
      }
      a_val = imm ^ bit;
      b_val = bit;
      break;
    }
    default:
      return sb::Unimplemented("imm-twice only for add/sub/or/and/xor");
  }
  EmitWithImm(out, insn, bytes, a_val);
  EmitWithImm(out, insn, bytes, b_val);
  return sb::OkStatus();
}

// MOV with a patterned immediate: build the value with MOV+LEA (flag-free).
sb::Status TransformMovImm(std::vector<uint8_t>& out, const Insn& insn,
                           std::span<const uint8_t> bytes, int variant) {
  const uint8_t op = bytes[insn.opcode_off];
  Assembler a;
  if (op >= 0xb8 && op <= 0xbf) {
    const uint8_t reg = static_cast<uint8_t>((op & 7) | ((insn.rex & 1) << 3));
    const uint64_t raw = ReadLittle(bytes, insn.imm_off, insn.imm_len);
    const uint64_t value = insn.rex_w() ? raw : (raw & 0xffffffffULL);
    EmitBuildScratch(a, static_cast<Reg>(reg), value, variant);
    out.insert(out.end(), a.bytes().begin(), a.bytes().end());
    return sb::OkStatus();
  }
  if (op == 0xc7) {
    const uint64_t value = insn.rex_w()
                               ? static_cast<uint64_t>(SignExtend(
                                     ReadLittle(bytes, insn.imm_off, insn.imm_len), 32))
                               : ReadLittle(bytes, insn.imm_off, insn.imm_len);
    if (insn.modrm_is_reg()) {
      const Reg dst = static_cast<Reg>(insn.modrm_rm());
      EmitBuildScratch(a, dst, value, variant);
      if (!insn.rex_w()) {
        // The original zero-extended a 32-bit write; emulate with a 32-bit
        // self-move (89 /r without REX.W).
        a.Raw({0x89, static_cast<uint8_t>(0xc0 | ((static_cast<uint8_t>(dst) & 7) << 3) |
                                          (static_cast<uint8_t>(dst) & 7))});
      }
      out.insert(out.end(), a.bytes().begin(), a.bytes().end());
      return sb::OkStatus();
    }
    // Memory destination: build in scratch, store, restore scratch.
    if (!ReencodableEncoding(insn)) {
      return sb::Unimplemented("cannot re-encode instruction");
    }
    SB_ASSIGN_OR_RETURN(MemOp mem, ParseMem(insn, bytes));
    if (mem.rip_relative) {
      return sb::Unimplemented("mov imm to RIP-relative destination");
    }
    SB_ASSIGN_OR_RETURN(const Reg scratch, PickScratch(insn, variant));
    a.PushR(scratch);
    EmitBuildScratch(a, scratch, value, variant);
    MemOp adjusted = mem;
    if (mem.has_base && mem.base == static_cast<uint8_t>(Reg::kRsp)) {
      adjusted.disp += 8;  // Compensate for the push.
    }
    // Store: 89 /r with the original operand size.
    Assembler store;
    std::vector<uint8_t> store_bytes;
    {
      // Synthesize a template `mov [mem], scratch` matching the original
      // operand size (REX.W copied from the original instruction).
      std::vector<uint8_t> tmpl;
      if (insn.operand_size_16) {
        tmpl.push_back(0x66);
      }
      uint8_t rex = insn.rex & 0x48;
      if (static_cast<uint8_t>(scratch) >= 8) {
        rex |= 4;
      }
      if (rex != 0) {
        tmpl.push_back(static_cast<uint8_t>(0x40 | (rex & 0xf)));
      }
      tmpl.push_back(0x89);
      tmpl.push_back(static_cast<uint8_t>(0x80 | ((static_cast<uint8_t>(scratch) & 7) << 3)));
      for (int i = 0; i < 4; ++i) {
        tmpl.push_back(0);
      }
      const Insn tmpl_insn = Decode(tmpl, 0);
      SB_CHECK(tmpl_insn.valid);
      EmitWithMem(store_bytes, tmpl_insn, tmpl, adjusted);
    }
    (void)store;
    a.Append(store_bytes);
    a.PopR(scratch);
    out.insert(out.end(), a.bytes().begin(), a.bytes().end());
    return sb::OkStatus();
  }
  return sb::Unimplemented("mov-imm form not supported");
}

// CMP/TEST with patterned immediate: exact flag semantics via a scratch.
sb::Status TransformCmpTestImm(std::vector<uint8_t>& out, const Insn& insn,
                               std::span<const uint8_t> bytes, int variant) {
  if (!ReencodableEncoding(insn)) {
    return sb::Unimplemented("cannot re-encode instruction");
  }
  if (insn.imm_len != 4) {
    return sb::Unimplemented("cmp/test imm split requires imm32");
  }
  SB_ASSIGN_OR_RETURN(const Reg scratch, PickScratch(insn, variant));
  const uint64_t raw = ReadLittle(bytes, insn.imm_off, insn.imm_len);
  const uint64_t value =
      insn.rex_w() ? static_cast<uint64_t>(SignExtend(raw, 32)) : (raw & 0xffffffffULL);
  Assembler a;
  a.PushR(scratch);
  EmitBuildScratch(a, scratch, value, variant);
  // Re-encode as the register form: CMP rm, r (39 /r) or TEST rm, r (85 /r).
  const uint8_t opcode = insn.mnemonic == Mnemonic::kCmp ? 0x39 : 0x85;
  std::vector<uint8_t> body;
  if (insn.has_modrm && insn.modrm_is_reg()) {
    const uint8_t rm = insn.modrm_rm();
    uint8_t rex = insn.rex & 0x48;
    if (static_cast<uint8_t>(scratch) >= 8) {
      rex |= 4;
    }
    if (rm >= 8) {
      rex |= 1;
    }
    if (insn.operand_size_16) {
      body.push_back(0x66);
    }
    if (rex != 0) {
      body.push_back(static_cast<uint8_t>(0x40 | (rex & 0xf)));
    }
    body.push_back(opcode);
    body.push_back(
        static_cast<uint8_t>(0xc0 | ((static_cast<uint8_t>(scratch) & 7) << 3) | (rm & 7)));
  } else if (insn.has_modrm) {
    SB_ASSIGN_OR_RETURN(MemOp mem, ParseMem(insn, bytes));
    if (mem.rip_relative) {
      return sb::Unimplemented("cmp/test imm on RIP-relative operand");
    }
    if (mem.has_base && mem.base == static_cast<uint8_t>(Reg::kRsp)) {
      mem.disp += 8;
    }
    std::vector<uint8_t> tmpl;
    if (insn.operand_size_16) {
      tmpl.push_back(0x66);
    }
    uint8_t rex = insn.rex & 0x48;
    if (static_cast<uint8_t>(scratch) >= 8) {
      rex |= 4;
    }
    if (rex != 0) {
      tmpl.push_back(static_cast<uint8_t>(0x40 | (rex & 0xf)));
    }
    tmpl.push_back(opcode);
    tmpl.push_back(static_cast<uint8_t>(0x80 | ((static_cast<uint8_t>(scratch) & 7) << 3)));
    for (int i = 0; i < 4; ++i) {
      tmpl.push_back(0);
    }
    const Insn tmpl_insn = Decode(tmpl, 0);
    SB_CHECK(tmpl_insn.valid);
    EmitWithMem(body, tmpl_insn, tmpl, mem);
  } else {
    // 3D / A9 forms (rax destination).
    const uint8_t rm = 0;  // rax
    uint8_t rex = insn.rex & 0x48;
    if (static_cast<uint8_t>(scratch) >= 8) {
      rex |= 4;
    }
    if (insn.operand_size_16) {
      body.push_back(0x66);
    }
    if (rex != 0) {
      body.push_back(static_cast<uint8_t>(0x40 | (rex & 0xf)));
    }
    body.push_back(opcode);
    body.push_back(
        static_cast<uint8_t>(0xc0 | ((static_cast<uint8_t>(scratch) & 7) << 3) | rm));
  }
  a.Append(body);
  a.PopR(scratch);
  out.insert(out.end(), a.bytes().begin(), a.bytes().end());
  return sb::OkStatus();
}

// IMUL r, rm, imm with a patterned immediate.
sb::Status TransformImulImm(std::vector<uint8_t>& out, const Insn& insn,
                            std::span<const uint8_t> bytes, int variant) {
  if (!ReencodableEncoding(insn)) {
    return sb::Unimplemented("cannot re-encode instruction");
  }
  if (!insn.rex_w()) {
    return sb::Unimplemented("imul imm split implemented for 64-bit form only");
  }
  SB_ASSIGN_OR_RETURN(const Reg scratch, PickScratch(insn, variant));
  const Reg dst = static_cast<Reg>(insn.modrm_reg());
  const uint64_t value = static_cast<uint64_t>(
      SignExtend(ReadLittle(bytes, insn.imm_off, insn.imm_len), insn.imm_len * 8u));
  Assembler a;
  a.PushR(scratch);
  EmitBuildScratch(a, scratch, value, variant);
  if (insn.modrm_is_reg()) {
    a.ImulRR(scratch, static_cast<Reg>(insn.modrm_rm()));
  } else {
    SB_ASSIGN_OR_RETURN(MemOp mem, ParseMem(insn, bytes));
    if (mem.rip_relative) {
      return sb::Unimplemented("imul imm on RIP-relative operand");
    }
    if (mem.has_base && mem.base == static_cast<uint8_t>(Reg::kRsp)) {
      mem.disp += 8;
    }
    // imul scratch, [mem]: REX.W 0F AF /r.
    std::vector<uint8_t> tmpl;
    uint8_t rex = 0x48;
    if (static_cast<uint8_t>(scratch) >= 8) {
      rex |= 4;
    }
    tmpl.push_back(rex);
    tmpl.push_back(0x0f);
    tmpl.push_back(0xaf);
    tmpl.push_back(static_cast<uint8_t>(0x80 | ((static_cast<uint8_t>(scratch) & 7) << 3)));
    for (int i = 0; i < 4; ++i) {
      tmpl.push_back(0);
    }
    const Insn tmpl_insn = Decode(tmpl, 0);
    SB_CHECK(tmpl_insn.valid);
    std::vector<uint8_t> body;
    EmitWithMem(body, tmpl_insn, tmpl, mem);
    a.Append(body);
  }
  a.MovRR64(dst, scratch);
  a.PopR(scratch);
  out.insert(out.end(), a.bytes().begin(), a.bytes().end());
  return sb::OkStatus();
}

// PUSH imm32 with a patterned immediate: build the value flag-free in a
// scratch register parked below the red zone.
sb::Status TransformPushImm(std::vector<uint8_t>& out, const Insn& insn,
                            std::span<const uint8_t> bytes, int variant) {
  if (insn.imm_len != 4) {
    return sb::Unimplemented("push imm split requires imm32");
  }
  const uint64_t value = static_cast<uint64_t>(
      SignExtend(ReadLittle(bytes, insn.imm_off, insn.imm_len), 32));
  SB_ASSIGN_OR_RETURN(const Reg scratch, PickScratch(insn, variant));
  Assembler a;
  // lea rsp, [rsp-8]     (the push's slot, no flags touched)
  a.Lea(Reg::kRsp, Reg::kRsp, Assembler::kNoIndex, 1, -8);
  a.PushR(scratch);  // Save the scratch below the slot.
  EmitBuildScratch(a, scratch, value, variant);
  // mov [rsp+8], scratch — fill the slot.
  a.MovMR64(Reg::kRsp, 8, scratch);
  a.PopR(scratch);
  out.insert(out.end(), a.bytes().begin(), a.bytes().end());
  return sb::OkStatus();
}

// ---- Snippet construction ----

struct WindowInsn {
  size_t off;  // Offset in code.
  Insn insn;
  bool offending;  // The instruction containing the pattern (C3 cases).
};

class SnippetBuilder {
 public:
  SnippetBuilder(std::span<const uint8_t> code, const RewriteConfig& config,
                 const VmfuncHit& hit, std::vector<WindowInsn> window, size_t window_end)
      : code_(code), config_(config), hit_(hit), window_(std::move(window)),
        window_end_(window_end) {}

  // Emits the snippet at `snippet_va`; returns the bytes or an error.
  sb::StatusOr<std::vector<uint8_t>> Emit(uint64_t snippet_va, int variant) {
    std::vector<uint8_t> out;
    for (const WindowInsn& wi : window_) {
      const uint64_t orig_va = config_.code_base + wi.off;
      const std::span<const uint8_t> insn_bytes = code_.subspan(wi.off, wi.insn.length);
      if (wi.offending) {
        SB_RETURN_IF_ERROR(EmitTransformed(out, wi.insn, insn_bytes, orig_va,
                                           snippet_va + out.size(), variant));
      } else {
        SB_RETURN_IF_ERROR(EmitRelocated(out, wi.insn, insn_bytes, orig_va,
                                         snippet_va + out.size()));
      }
      // Break C2 spans: a NOP after any instruction boundary that falls
      // strictly inside the pattern triple.
      const size_t insn_end = wi.off + wi.insn.length;
      if (insn_end > hit_.pattern_off && insn_end <= hit_.pattern_off + 2) {
        out.push_back(kNopByte);
      }
    }
    // Jump back to the instruction after the window.
    const uint64_t back_target = config_.code_base + window_end_;
    const uint64_t jmp_va = snippet_va + out.size();
    const int64_t rel = static_cast<int64_t>(back_target) - static_cast<int64_t>(jmp_va + 5);
    if (rel < INT32_MIN || rel > INT32_MAX) {
      return sb::OutOfRange("rewrite page too far from code");
    }
    out.push_back(0xe9);
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<uint8_t>(static_cast<uint32_t>(rel) >> (8 * i)));
    }
    return out;
  }

 private:
  sb::Status EmitRelocated(std::vector<uint8_t>& out, const Insn& insn,
                           std::span<const uint8_t> bytes, uint64_t orig_va, uint64_t new_va) {
    const Mnemonic m = insn.mnemonic;
    if (m == Mnemonic::kJmpRel || m == Mnemonic::kJccRel || m == Mnemonic::kCallRel) {
      const int64_t disp = SignExtend(ReadLittle(bytes, insn.imm_off, insn.imm_len),
                                      insn.imm_len * 8u);
      const uint64_t target = orig_va + insn.length + static_cast<uint64_t>(disp);
      // Targets inside the moved window would need label tracking.
      const uint64_t win_lo = config_.code_base + window_.front().off;
      const uint64_t win_hi = config_.code_base + window_end_;
      if (target >= win_lo && target < win_hi) {
        return sb::Unimplemented("branch target inside relocated window");
      }
      // Re-encode as the rel32 form.
      uint8_t enc[6];
      size_t enc_len = 0;
      if (m == Mnemonic::kJmpRel) {
        enc[0] = 0xe9;
        enc_len = 5;
      } else if (m == Mnemonic::kCallRel) {
        enc[0] = 0xe8;
        enc_len = 5;
      } else {
        const uint8_t op = bytes[insn.opcode_off];
        const uint8_t cond =
            insn.opcode_len == 1 ? (op & 0xf) : (bytes[insn.opcode_off + 1] & 0xf);
        enc[0] = 0x0f;
        enc[1] = static_cast<uint8_t>(0x80 | cond);
        enc_len = 6;
      }
      const int64_t new_rel =
          static_cast<int64_t>(target) - static_cast<int64_t>(new_va + enc_len);
      if (new_rel < INT32_MIN || new_rel > INT32_MAX) {
        return sb::OutOfRange("relocated branch out of rel32 range");
      }
      const size_t rel_off = enc_len - 4;
      for (int i = 0; i < 4; ++i) {
        enc[rel_off + static_cast<size_t>(i)] =
            static_cast<uint8_t>(static_cast<uint32_t>(new_rel) >> (8 * i));
      }
      out.insert(out.end(), enc, enc + enc_len);
      return sb::OkStatus();
    }
    if (insn.is_rip_relative()) {
      const int64_t disp =
          SignExtend(ReadLittle(bytes, insn.disp_off, insn.disp_len), insn.disp_len * 8u);
      const uint64_t target = orig_va + insn.length + static_cast<uint64_t>(disp);
      const int64_t new_disp =
          static_cast<int64_t>(target) - static_cast<int64_t>(new_va + insn.length);
      if (new_disp < INT32_MIN || new_disp > INT32_MAX) {
        return sb::OutOfRange("relocated RIP-relative operand out of range");
      }
      std::vector<uint8_t> copy(bytes.begin(), bytes.end());
      for (int i = 0; i < 4; ++i) {
        copy[insn.disp_off + static_cast<size_t>(i)] =
            static_cast<uint8_t>(static_cast<uint32_t>(new_disp) >> (8 * i));
      }
      out.insert(out.end(), copy.begin(), copy.end());
      return sb::OkStatus();
    }
    out.insert(out.end(), bytes.begin(), bytes.end());
    return sb::OkStatus();
  }

  sb::Status EmitTransformed(std::vector<uint8_t>& out, const Insn& insn,
                             std::span<const uint8_t> bytes, uint64_t orig_va, uint64_t new_va,
                             int variant) {
    switch (hit_.overlap) {
      case VmfuncOverlap::kInModrm:
      case VmfuncOverlap::kInSib:
        return TransformRegSubstitution(out, insn, bytes, variant);
      case VmfuncOverlap::kInDisp:
        if (insn.is_rip_relative()) {
          return EmitRelocated(out, insn, bytes, orig_va, new_va);
        }
        return TransformDispSplit(out, insn, bytes, variant);
      case VmfuncOverlap::kInImm:
        switch (insn.mnemonic) {
          case Mnemonic::kJmpRel:
          case Mnemonic::kJccRel:
          case Mnemonic::kCallRel:
            // Jump-like: the displacement changes when relocated (Table 3).
            return EmitRelocated(out, insn, bytes, orig_va, new_va);
          case Mnemonic::kAdd:
          case Mnemonic::kSub:
          case Mnemonic::kOr:
          case Mnemonic::kAnd:
          case Mnemonic::kXor:
            return TransformImmTwice(out, insn, bytes, variant);
          case Mnemonic::kMov:
          case Mnemonic::kMovImm64:
            return TransformMovImm(out, insn, bytes, variant);
          case Mnemonic::kCmp:
          case Mnemonic::kTest:
            return TransformCmpTestImm(out, insn, bytes, variant);
          case Mnemonic::kImul:
            return TransformImulImm(out, insn, bytes, variant);
          case Mnemonic::kPush:
            return TransformPushImm(out, insn, bytes, variant);
          default:
            return sb::Unimplemented("imm rewrite for this mnemonic");
        }
      case VmfuncOverlap::kSpans:
        // No transform needed; the NOP separator in Emit() breaks the span.
        return EmitRelocated(out, insn, bytes, orig_va, new_va);
      default:
        return sb::Unimplemented("unhandled overlap case");
    }
  }

  std::span<const uint8_t> code_;
  const RewriteConfig& config_;
  const VmfuncHit hit_;
  std::vector<WindowInsn> window_;
  size_t window_end_;
};

// The runs where `edited` differs from `original`, as replayable patches.
// Equal 64-byte blocks are skipped with memcmp; the runs are byte-exact.
std::vector<PagePatch> DiffPatches(std::span<const uint8_t> original,
                                   std::span<const uint8_t> edited) {
  constexpr size_t kBlock = 64;
  std::vector<PagePatch> patches;
  const size_t n = original.size();
  size_t i = 0;
  while (i < n) {
    while (i + kBlock <= n && std::memcmp(&original[i], &edited[i], kBlock) == 0) {
      i += kBlock;
    }
    while (i < n && original[i] == edited[i]) {
      ++i;
    }
    size_t j = i;
    while (j < n && original[j] != edited[j]) {
      ++j;
    }
    if (j > i) {
      PagePatch patch;
      patch.code_off = i;
      patch.bytes.assign(edited.begin() + static_cast<long>(i),
                         edited.begin() + static_cast<long>(j));
      patches.push_back(std::move(patch));
    }
    i = j;
  }
  return patches;
}

}  // namespace

// ---- Main driver ----

sb::Status RewriteHit(std::vector<uint8_t>& code, std::vector<uint8_t>& page,
                      const RewriteConfig& config, const VmfuncHit& hit, RewriteStats& stats) {
  if (hit.overlap == VmfuncOverlap::kIsVmfunc || hit.overlap == VmfuncOverlap::kInOpcode ||
      hit.overlap == VmfuncOverlap::kUndecodable) {
    // C1 (and conservative fallback): replace the three bytes with NOPs.
    code[hit.pattern_off] = kNopByte;
    code[hit.pattern_off + 1] = kNopByte;
    code[hit.pattern_off + 2] = kNopByte;
    ++stats.nop_replaced;
    return sb::OkStatus();
  }

  // Build the relocation window: whole instructions covering the pattern,
  // extended until it can hold a 5-byte JMP.
  const std::span<const uint8_t> code_span(code);
  std::vector<WindowInsn> window;
  size_t pos = hit.insn_off;
  size_t end = hit.insn_off;
  while (end < hit.pattern_off + 3 || end - hit.insn_off < 5) {
    if (pos >= code.size()) {
      return sb::OutOfRange("pattern too close to end of code region");
    }
    const Insn insn = Decode(code_span, pos);
    if (!insn.valid) {
      return sb::Unimplemented("undecodable instruction in rewrite window");
    }
    WindowInsn wi;
    wi.off = pos;
    wi.insn = insn;
    wi.offending = hit.overlap != VmfuncOverlap::kSpans && pos == hit.insn_off;
    window.push_back(wi);
    pos += insn.length;
    end = pos;
  }

  SnippetBuilder builder(code_span, config, hit, window, end);

  // Try (pad, variant) combinations until the snippet, the page junctions and
  // the patched code window hold no gate pattern at all.
  for (int attempt = 0; attempt < 48; ++attempt) {
    const int pad = attempt % 6;
    const int variant = attempt / 6;
    const size_t snippet_off = page.size() + static_cast<size_t>(pad);
    const uint64_t snippet_va = config.rewrite_page_base + snippet_off;
    auto emitted = builder.Emit(snippet_va, variant);
    if (!emitted.ok()) {
      if (emitted.status().code() == sb::ErrorCode::kUnimplemented ||
          emitted.status().code() == sb::ErrorCode::kOutOfRange) {
        return emitted.status();
      }
      continue;
    }
    const std::vector<uint8_t>& snippet = *emitted;
    if (snippet_off + snippet.size() > config.rewrite_page_capacity) {
      return sb::ResourceExhausted("rewrite page full");
    }
    // Check the snippet plus a little context from the current page tail.
    std::vector<uint8_t> probe;
    const size_t ctx = std::min<size_t>(page.size(), 2);
    probe.insert(probe.end(), page.end() - static_cast<long>(ctx), page.end());
    probe.insert(probe.end(), static_cast<size_t>(pad), kNopByte);
    probe.insert(probe.end(), snippet.begin(), snippet.end());
    if (ContainsGatePattern(probe)) {
      continue;
    }
    // Build the patched code window: JMP snippet + NOP fill.
    const size_t wstart = window.front().off;
    const uint64_t jmp_va = config.code_base + wstart;
    const int64_t jmp_rel =
        static_cast<int64_t>(snippet_va) - static_cast<int64_t>(jmp_va + 5);
    if (jmp_rel < INT32_MIN || jmp_rel > INT32_MAX) {
      return sb::OutOfRange("rewrite page too far from code");
    }
    std::vector<uint8_t> patch(end - wstart, kNopByte);
    patch[0] = 0xe9;
    for (int i = 0; i < 4; ++i) {
      patch[1 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(static_cast<uint32_t>(jmp_rel) >> (8 * i));
    }
    std::vector<uint8_t> code_probe;
    const size_t lo = wstart >= 2 ? wstart - 2 : 0;
    const size_t hi = std::min(code.size(), end + 2);
    code_probe.insert(code_probe.end(), code.begin() + static_cast<long>(lo),
                      code.begin() + static_cast<long>(wstart));
    code_probe.insert(code_probe.end(), patch.begin(), patch.end());
    code_probe.insert(code_probe.end(), code.begin() + static_cast<long>(end),
                      code.begin() + static_cast<long>(hi));
    if (ContainsGatePattern(code_probe)) {
      continue;
    }
    // Commit.
    page.insert(page.end(), static_cast<size_t>(pad), kNopByte);
    page.insert(page.end(), snippet.begin(), snippet.end());
    std::copy(patch.begin(), patch.end(), code.begin() + static_cast<long>(wstart));
    ++stats.windows_relocated;
    ++stats.snippets_emitted;
    return sb::OkStatus();
  }
  return sb::Internal("could not find a pattern-free rewriting");
}

sb::StatusOr<RewriteResult> RewriteVmfunc(std::span<const uint8_t> code,
                                          const RewriteConfig& config) {
  RewriteResult result;
  result.code.assign(code.begin(), code.end());

  ScanStats scan_stats;
  ScanOptions scan_options;
  scan_options.stats = &scan_stats;
  scan_options.pattern = config.pattern;

  for (int iter = 0; iter < config.max_iterations; ++iter) {
    const std::vector<VmfuncHit> hits = ScanForVmfunc(result.code, scan_options);
    result.stats.scan_pages = scan_stats.pages;
    if (hits.empty()) {
      if (ContainsGatePattern(result.rewrite_page)) {
        return sb::Internal("rewrite page contains a gate pattern after rewriting");
      }
      return result;
    }
    SB_RETURN_IF_ERROR(
        RewriteHit(result.code, result.rewrite_page, config, hits.front(), result.stats));
  }
  return sb::Internal("rewriting did not converge");
}

sb::StatusOr<PageRewrite> RewriteVmfuncPage(std::span<const uint8_t> code, size_t page_index,
                                            const RewriteConfig& config,
                                            std::vector<size_t>& starts) {
  constexpr size_t kCodePageBytes = 4096;
  PageRewrite result;
  // Passes scan `code` itself until the first edit makes a working copy.
  std::vector<uint8_t> working;
  bool edited = false;

  ScanStats scan_stats;
  ScanOptions scan_options;
  scan_options.stats = &scan_stats;
  scan_options.pattern = config.pattern;

  for (int iter = 0; iter < config.max_iterations; ++iter) {
    const std::span<const uint8_t> current = edited ? std::span<const uint8_t>(working) : code;
    const std::vector<VmfuncHit> hits = ScanForVmfunc(current, scan_options, starts);
    result.stats.scan_pages = scan_stats.pages;
    const auto owned = std::find_if(hits.begin(), hits.end(), [&](const VmfuncHit& hit) {
      return hit.pattern_off / kCodePageBytes == page_index;
    });
    if (owned == hits.end()) {
      if (ContainsGatePattern(result.snippets)) {
        starts.clear();
        return sb::Internal("rewrite sub-window contains a gate pattern after rewriting");
      }
      if (edited) {
        result.patches = DiffPatches(code, working);
      }
      return result;
    }
    if (!edited) {
      working.assign(code.begin(), code.end());
      edited = true;
    }
    // The edit may move instruction boundaries, so the next pass re-sweeps.
    starts.clear();
    SB_RETURN_IF_ERROR(RewriteHit(working, result.snippets, config, *owned, result.stats));
  }
  return sb::Internal("rewriting did not converge");
}

}  // namespace x86
