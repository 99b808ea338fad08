#include "src/bc/bytecode.h"

#include <algorithm>
#include <cstring>

#include "src/support/wire_codec.h"
#include "src/vm/builtins.h"

namespace ivy {

uint32_t BcInstrLen(const uint32_t* w) {
  switch (BcOpOf(w[0])) {
    case BcOp::kConst:
    case BcOp::kFrameAddr:
    case BcOp::kGlobalAddr:
      return 3;
    case BcOp::kMove:
    case BcOp::kNeg:
    case BcOp::kLogNot:
    case BcOp::kBitNot:
    case BcOp::kLoad:
    case BcOp::kStore:
    case BcOp::kStorePtr:
    case BcOp::kFuncConst:
    case BcOp::kStrConst:
    case BcOp::kJump:
      return 2;
    case BcOp::kAdd:
    case BcOp::kSub:
    case BcOp::kMul:
    case BcOp::kDiv:
    case BcOp::kRem:
    case BcOp::kShl:
    case BcOp::kShr:
    case BcOp::kLt:
    case BcOp::kGt:
    case BcOp::kLe:
    case BcOp::kGe:
    case BcOp::kEq:
    case BcOp::kNe:
    case BcOp::kBitAnd:
    case BcOp::kBitOr:
    case BcOp::kBitXor:
    case BcOp::kLogAnd:
    case BcOp::kLogOr:
    case BcOp::kBranch:
      return 3;
    case BcOp::kCall:
    case BcOp::kCallInd:
      return 2 + BcAuxOf(w[0]);
    case BcOp::kIntrinsic:
      return 4 + w[3];
    case BcOp::kRet:
    case BcOp::kImplicitRet:
    case BcOp::kCheckNonNull:
    case BcOp::kCheckWhen:
    case BcOp::kCheckNtAdvance:
    case BcOp::kCheckStack:
    case BcOp::kDelayedPush:
    case BcOp::kDelayedPop:
    case BcOp::kTrap:
      return 1;
    case BcOp::kCheckBounds:
      return 5;
    case BcOp::kCount_:
      break;
  }
  return 0;
}

SourceLoc BcModule::LocAt(uint32_t pc) const {
  // Last change point with change.pc <= pc.
  auto it = std::upper_bound(
      pc_locs.begin(), pc_locs.end(), pc,
      [](uint32_t p, const std::pair<uint32_t, uint32_t>& e) { return p < e.first; });
  if (it == pc_locs.begin()) {
    return SourceLoc{};
  }
  uint32_t idx = std::prev(it)->second;
  return idx < loc_pool.size() ? loc_pool[idx] : SourceLoc{};
}

int BcModule::FindFunc(const std::string& name) const {
  for (size_t i = 0; i < funcs.size(); ++i) {
    if (!funcs[i].name.empty() && funcs[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

void PutLoc(WireWriter& w, const SourceLoc& loc) {
  w.PutU32(static_cast<uint32_t>(loc.file));
  w.PutU32(static_cast<uint32_t>(loc.line));
  w.PutU32(static_cast<uint32_t>(loc.col));
}

bool GetLoc(WireReader& r, SourceLoc* loc) {
  uint32_t file = 0, line = 0, col = 0;
  if (!r.GetU32(&file) || !r.GetU32(&line) || !r.GetU32(&col)) {
    return false;
  }
  loc->file = static_cast<int32_t>(file);
  loc->line = static_cast<int32_t>(line);
  loc->col = static_cast<int32_t>(col);
  return true;
}

}  // namespace

std::string EncodeBcImage(const BcModule& m) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(m.code.size()));
  for (uint32_t word : m.code) {
    w.PutU32(word);
  }
  w.PutU32(static_cast<uint32_t>(m.funcs.size()));
  for (const BcFunc& f : m.funcs) {
    w.PutStr(f.name);
    PutLoc(w, f.decl_loc);
    w.PutU8(f.defined);
    w.PutU32(f.entry_pc);
    w.PutU32(f.code_end);
    w.PutU32(f.num_regs);
    w.PutU64(static_cast<uint64_t>(f.frame_size));
    w.PutI64Vec(f.param_offsets);
    w.PutU32(static_cast<uint32_t>(f.param_sizes.size()));
    for (uint8_t s : f.param_sizes) {
      w.PutU8(s);
    }
    w.PutI64Vec(f.ptr_slots);
  }
  w.PutStrVec(m.string_pool);
  w.PutU32(static_cast<uint32_t>(m.globals.size()));
  for (const GlobalSlot& g : m.globals) {
    w.PutU64(g.addr);
    w.PutU64(static_cast<uint64_t>(g.size));
    w.PutU32(static_cast<uint32_t>(g.type_id));
    w.PutI64Vec(g.ptr_offsets);
  }
  w.PutU32(static_cast<uint32_t>(m.global_inits.size()));
  for (const GlobalInit& gi : m.global_inits) {
    w.PutU64(gi.addr);
    w.PutU8(gi.size);
    w.PutU8(gi.is_string);
    w.PutU64(static_cast<uint64_t>(gi.value));
  }
  w.PutU64(m.globals_end);
  w.PutU32(static_cast<uint32_t>(m.loc_pool.size()));
  for (const SourceLoc& loc : m.loc_pool) {
    PutLoc(w, loc);
  }
  w.PutU32(static_cast<uint32_t>(m.pc_locs.size()));
  for (const auto& e : m.pc_locs) {
    w.PutU32(e.first);
    w.PutU32(e.second);
  }

  std::string payload = w.Take();
  std::string image;
  image.reserve(payload.size() + 8);
  image.push_back(static_cast<char>(kBcMagic0));
  image.push_back(static_cast<char>(kBcMagic1));
  image.push_back(static_cast<char>(kBcVersion));
  image.push_back(0);
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    image.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  image += payload;
  return image;
}

bool DecodeBcImage(const std::string& bytes, BcModule* out, std::string* err) {
  auto fail = [err](const char* why) {
    if (err != nullptr) {
      *err = why;
    }
    return false;
  };
  if (bytes.size() < 8) {
    return fail("image shorter than header");
  }
  const uint8_t* h = reinterpret_cast<const uint8_t*>(bytes.data());
  if (h[0] != kBcMagic0 || h[1] != kBcMagic1) {
    return fail("bad magic");
  }
  if (h[2] != kBcVersion) {
    return fail("unsupported image version");
  }
  uint32_t len = static_cast<uint32_t>(h[4]) | static_cast<uint32_t>(h[5]) << 8 |
                 static_cast<uint32_t>(h[6]) << 16 | static_cast<uint32_t>(h[7]) << 24;
  if (bytes.size() != static_cast<size_t>(len) + 8) {
    return fail("payload length mismatch");
  }

  std::string payload = bytes.substr(8);
  WireReader r(payload);
  BcModule m;

  uint32_t n = 0;
  if (!r.GetU32(&n)) {
    return fail("truncated code");
  }
  m.code.reserve(std::min<uint32_t>(n, 1u << 20));
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t word = 0;
    if (!r.GetU32(&word)) {
      return fail("truncated code");
    }
    m.code.push_back(word);
  }

  if (!r.GetU32(&n)) {
    return fail("truncated function table");
  }
  m.funcs.reserve(std::min<uint32_t>(n, 1u << 16));
  for (uint32_t i = 0; i < n; ++i) {
    BcFunc f;
    uint64_t frame_size = 0;
    uint32_t nsizes = 0;
    if (!r.GetStr(&f.name) || !GetLoc(r, &f.decl_loc) || !r.GetU8(&f.defined) ||
        !r.GetU32(&f.entry_pc) || !r.GetU32(&f.code_end) || !r.GetU32(&f.num_regs) ||
        !r.GetU64(&frame_size) || !r.GetI64Vec(&f.param_offsets) || !r.GetU32(&nsizes)) {
      return fail("truncated function entry");
    }
    f.frame_size = static_cast<int64_t>(frame_size);
    f.param_sizes.reserve(std::min<uint32_t>(nsizes, 1u << 10));
    for (uint32_t j = 0; j < nsizes; ++j) {
      uint8_t s = 0;
      if (!r.GetU8(&s)) {
        return fail("truncated function entry");
      }
      f.param_sizes.push_back(s);
    }
    if (!r.GetI64Vec(&f.ptr_slots)) {
      return fail("truncated function entry");
    }
    m.funcs.push_back(std::move(f));
  }

  if (!r.GetStrVec(&m.string_pool)) {
    return fail("truncated string pool");
  }

  if (!r.GetU32(&n)) {
    return fail("truncated globals");
  }
  m.globals.reserve(std::min<uint32_t>(n, 1u << 16));
  for (uint32_t i = 0; i < n; ++i) {
    GlobalSlot g;
    uint64_t size = 0;
    uint32_t type_id = 0;
    if (!r.GetU64(&g.addr) || !r.GetU64(&size) || !r.GetU32(&type_id) ||
        !r.GetI64Vec(&g.ptr_offsets)) {
      return fail("truncated global entry");
    }
    g.size = static_cast<int64_t>(size);
    g.type_id = static_cast<int>(type_id);
    m.globals.push_back(std::move(g));
  }

  if (!r.GetU32(&n)) {
    return fail("truncated global inits");
  }
  m.global_inits.reserve(std::min<uint32_t>(n, 1u << 16));
  for (uint32_t i = 0; i < n; ++i) {
    GlobalInit gi;
    uint64_t value = 0;
    if (!r.GetU64(&gi.addr) || !r.GetU8(&gi.size) || !r.GetU8(&gi.is_string) ||
        !r.GetU64(&value)) {
      return fail("truncated global init");
    }
    gi.value = static_cast<int64_t>(value);
    m.global_inits.push_back(gi);
  }

  if (!r.GetU64(&m.globals_end)) {
    return fail("truncated globals_end");
  }

  if (!r.GetU32(&n)) {
    return fail("truncated loc pool");
  }
  m.loc_pool.reserve(std::min<uint32_t>(n, 1u << 20));
  for (uint32_t i = 0; i < n; ++i) {
    SourceLoc loc;
    if (!GetLoc(r, &loc)) {
      return fail("truncated loc pool");
    }
    m.loc_pool.push_back(loc);
  }

  if (!r.GetU32(&n)) {
    return fail("truncated pc_locs");
  }
  m.pc_locs.reserve(std::min<uint32_t>(n, 1u << 20));
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t pc = 0, idx = 0;
    if (!r.GetU32(&pc) || !r.GetU32(&idx)) {
      return fail("truncated pc_locs");
    }
    m.pc_locs.push_back({pc, idx});
  }

  if (!r.Finish()) {
    return fail("trailing bytes after payload");
  }
  *out = std::move(m);
  return true;
}

// ---------------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------------

const char* BcOpName(BcOp op) {
  switch (op) {
    case BcOp::kConst: return "const";
    case BcOp::kMove: return "move";
    case BcOp::kNeg: return "neg";
    case BcOp::kLogNot: return "lognot";
    case BcOp::kBitNot: return "bitnot";
    case BcOp::kAdd: return "add";
    case BcOp::kSub: return "sub";
    case BcOp::kMul: return "mul";
    case BcOp::kDiv: return "div";
    case BcOp::kRem: return "rem";
    case BcOp::kShl: return "shl";
    case BcOp::kShr: return "shr";
    case BcOp::kLt: return "lt";
    case BcOp::kGt: return "gt";
    case BcOp::kLe: return "le";
    case BcOp::kGe: return "ge";
    case BcOp::kEq: return "eq";
    case BcOp::kNe: return "ne";
    case BcOp::kBitAnd: return "bitand";
    case BcOp::kBitOr: return "bitor";
    case BcOp::kBitXor: return "bitxor";
    case BcOp::kLogAnd: return "logand";
    case BcOp::kLogOr: return "logor";
    case BcOp::kLoad: return "load";
    case BcOp::kStore: return "store";
    case BcOp::kStorePtr: return "storeptr";
    case BcOp::kFrameAddr: return "frameaddr";
    case BcOp::kGlobalAddr: return "globaladdr";
    case BcOp::kFuncConst: return "funcconst";
    case BcOp::kStrConst: return "strconst";
    case BcOp::kCall: return "call";
    case BcOp::kCallInd: return "callind";
    case BcOp::kIntrinsic: return "intrinsic";
    case BcOp::kRet: return "ret";
    case BcOp::kImplicitRet: return "implicitret";
    case BcOp::kJump: return "jump";
    case BcOp::kBranch: return "branch";
    case BcOp::kCheckNonNull: return "check.nonnull";
    case BcOp::kCheckBounds: return "check.bounds";
    case BcOp::kCheckWhen: return "check.when";
    case BcOp::kCheckNtAdvance: return "check.ntadvance";
    case BcOp::kCheckStack: return "check.stack";
    case BcOp::kDelayedPush: return "delayed.push";
    case BcOp::kDelayedPop: return "delayed.pop";
    case BcOp::kTrap: return "trap";
    case BcOp::kCount_: break;
  }
  return "<bad-op>";
}

namespace {

int64_t Imm64At(const uint32_t* w) {
  return static_cast<int64_t>(static_cast<uint64_t>(w[0]) |
                              static_cast<uint64_t>(w[1]) << 32);
}

std::string RegName(uint32_t r) {
  return r == kBcNoReg || r == kBcNoWord ? std::string("_") : "r" + std::to_string(r);
}

}  // namespace

std::string DisassembleBc(const BcModule& m) {
  std::string out;
  char buf[160];
  for (size_t fi = 0; fi < m.funcs.size(); ++fi) {
    const BcFunc& f = m.funcs[fi];
    std::snprintf(buf, sizeof buf, "func %zu %s%s  regs=%u frame=%lld  [%u, %u)\n", fi,
                  f.name.empty() ? "?" : f.name.c_str(), f.defined != 0 ? "" : " (undefined)",
                  f.num_regs, static_cast<long long>(f.frame_size), f.entry_pc, f.code_end);
    out += buf;
    uint32_t pc = f.entry_pc;
    while (pc < f.code_end && pc < m.code.size()) {
      const uint32_t* w = m.code.data() + pc;
      uint32_t len = BcInstrLen(w);
      if (len == 0 || pc + len > m.code.size()) {
        std::snprintf(buf, sizeof buf, "  %6u  <bad instruction %08x>\n", pc, w[0]);
        out += buf;
        break;
      }
      BcOp op = BcOpOf(w[0]);
      uint8_t aux = BcAuxOf(w[0]);
      uint16_t r0 = BcR0Of(w[0]);
      std::snprintf(buf, sizeof buf, "  %6u  %-15s", pc, BcOpName(op));
      out += buf;
      switch (op) {
        case BcOp::kConst:
        case BcOp::kFrameAddr:
        case BcOp::kGlobalAddr:
          out += RegName(r0) + ", " + std::to_string(Imm64At(w + 1));
          break;
        case BcOp::kMove:
        case BcOp::kNeg:
        case BcOp::kLogNot:
        case BcOp::kBitNot:
          out += RegName(r0) + ", " + RegName(w[1]);
          break;
        case BcOp::kAdd:
        case BcOp::kSub:
        case BcOp::kMul:
        case BcOp::kDiv:
        case BcOp::kRem:
        case BcOp::kShl:
        case BcOp::kShr:
        case BcOp::kLt:
        case BcOp::kGt:
        case BcOp::kLe:
        case BcOp::kGe:
        case BcOp::kEq:
        case BcOp::kNe:
        case BcOp::kBitAnd:
        case BcOp::kBitOr:
        case BcOp::kBitXor:
        case BcOp::kLogAnd:
        case BcOp::kLogOr:
          out += RegName(r0) + ", " + RegName(w[1]) + ", " + RegName(w[2]);
          break;
        case BcOp::kLoad:
          out += RegName(r0) + ", [" + RegName(w[1]) + "], size=" + std::to_string(aux);
          break;
        case BcOp::kStore:
          out += "[" + RegName(r0) + "], " + RegName(w[1]) + ", size=" + std::to_string(aux);
          break;
        case BcOp::kStorePtr:
          out += "[" + RegName(r0) + "], " + RegName(w[1]);
          break;
        case BcOp::kFuncConst: {
          out += RegName(r0) + ", func " + std::to_string(w[1]);
          if (w[1] < m.funcs.size() && !m.funcs[w[1]].name.empty()) {
            out += " (" + m.funcs[w[1]].name + ")";
          }
          break;
        }
        case BcOp::kStrConst: {
          out += RegName(r0) + ", str " + std::to_string(w[1]);
          if (w[1] < m.string_pool.size()) {
            out += " \"" + m.string_pool[w[1]] + "\"";
          }
          break;
        }
        case BcOp::kCall:
        case BcOp::kCallInd: {
          out += RegName(r0) + ", ";
          if (op == BcOp::kCall) {
            out += "func " + std::to_string(w[1]);
            if (w[1] < m.funcs.size() && !m.funcs[w[1]].name.empty()) {
              out += " (" + m.funcs[w[1]].name + ")";
            }
          } else {
            out += "*" + RegName(w[1]);
          }
          out += " (";
          for (uint32_t i = 0; i < aux; ++i) {
            out += (i != 0 ? ", " : "") + RegName(w[2 + i]);
          }
          out += ")";
          break;
        }
        case BcOp::kIntrinsic: {
          out += RegName(r0);
          out += ", ";
          out += BuiltinName(static_cast<Builtin>(aux));
          out += " (";
          for (uint32_t i = 0; i < w[3]; ++i) {
            out += (i != 0 ? ", " : "") + RegName(w[4 + i]);
          }
          out += ")";
          break;
        }
        case BcOp::kRet:
          out += aux != 0 ? RegName(r0) : std::string("void");
          break;
        case BcOp::kImplicitRet:
        case BcOp::kCheckStack:
        case BcOp::kDelayedPush:
        case BcOp::kDelayedPop:
          break;
        case BcOp::kJump:
          out += "-> " + std::to_string(w[1]);
          break;
        case BcOp::kBranch:
          out += RegName(r0) + " ? " + std::to_string(w[1]) + " : " + std::to_string(w[2]);
          break;
        case BcOp::kCheckNonNull:
        case BcOp::kCheckWhen:
        case BcOp::kCheckNtAdvance:
          out += RegName(r0);
          break;
        case BcOp::kCheckBounds:
          out += RegName(r0) + " in [" + (w[1] == kBcNoWord ? "0" : RegName(w[1])) + ", " +
                 RegName(w[2]) + ") +" + std::to_string(Imm64At(w + 3));
          break;
        case BcOp::kTrap:
          out += TrapKindName(static_cast<TrapKind>(aux));
          break;
        case BcOp::kCount_:
          break;
      }
      out += "\n";
      pc += len;
    }
  }
  return out;
}

}  // namespace ivy
