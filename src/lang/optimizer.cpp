#include "lang/optimizer.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "lang/source_loc.h"

namespace eden::lang {

namespace {

// Wrapping arithmetic matching interpreter.cpp exactly: folding a
// computation must produce the same bits the interpreter would.
inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_neg(std::int64_t a) {
  return static_cast<std::int64_t>(-static_cast<std::uint64_t>(a));
}

inline bool is_cmp(Op op) { return op >= Op::cmp_eq && op <= Op::cmp_ge; }

// Ops that fuse a preceding push into an _imm superinstruction.
inline bool consumes_pushed_imm(Op op) {
  return op == Op::add || op == Op::sub || op == Op::mul || is_cmp(op);
}
inline bool is_cmp_imm(Op op) {
  return op >= Op::cmp_eq_imm && op <= Op::cmp_ge_imm;
}

// The three cmp families (plain / _imm / _jz / _imm_jz) list the six
// comparisons in the same order, so converting is index arithmetic.
inline Op cmp_offset(Op base_family, Op cmp, Op cmp_family) {
  return static_cast<Op>(static_cast<std::uint8_t>(base_family) +
                         (static_cast<std::uint8_t>(cmp) -
                          static_cast<std::uint8_t>(cmp_family)));
}
inline Op cmp_to_imm(Op cmp) {
  return cmp_offset(Op::cmp_eq_imm, cmp, Op::cmp_eq);
}
inline Op cmp_to_jz(Op cmp) {
  return cmp_offset(Op::cmp_eq_jz, cmp, Op::cmp_eq);
}
inline Op cmp_imm_to_imm_jz(Op cmp_imm) {
  return cmp_offset(Op::cmp_eq_imm_jz, cmp_imm, Op::cmp_eq_imm);
}

// Logical inverse, used to fuse `cmp; jnz` as an inverted `cmp_*_jz`.
inline Op invert_cmp(Op cmp) {
  switch (cmp) {
    case Op::cmp_eq: return Op::cmp_ne;
    case Op::cmp_ne: return Op::cmp_eq;
    case Op::cmp_lt: return Op::cmp_ge;
    case Op::cmp_le: return Op::cmp_gt;
    case Op::cmp_gt: return Op::cmp_le;
    case Op::cmp_ge: return Op::cmp_lt;
    default: return cmp;
  }
}

inline std::int64_t eval_cmp(Op cmp, std::int64_t a, std::int64_t b) {
  switch (cmp) {
    case Op::cmp_eq: return a == b ? 1 : 0;
    case Op::cmp_ne: return a != b ? 1 : 0;
    case Op::cmp_lt: return a < b ? 1 : 0;
    case Op::cmp_le: return a <= b ? 1 : 0;
    case Op::cmp_gt: return a > b ? 1 : 0;
    case Op::cmp_ge: return a >= b ? 1 : 0;
    default: return 0;
  }
}

// Instruction indices that control flow can enter other than by falling
// through: branch targets and function entries. Multi-instruction
// rewrites must not swallow one of these as a non-first instruction.
std::vector<char> compute_leaders(const CompiledProgram& p) {
  std::vector<char> lead(p.code.size(), 0);
  const std::size_t n = p.code.size();
  for (const auto& fn : p.functions) {
    if (fn.addr < n) lead[fn.addr] = 1;
  }
  for (const auto& instr : p.code) {
    if (is_branch_op(instr.op) && instr.a >= 0 &&
        static_cast<std::size_t>(instr.a) < n) {
      lead[static_cast<std::size_t>(instr.a)] = 1;
    }
  }
  return lead;
}

// Drops instructions marked in `removed` and forward-maps every branch
// target and function entry. A target pointing at a removed instruction
// moves to the next surviving one — removed instructions are always
// no-op windows, so that is where control would have ended up anyway.
// Targets already out of range are left untouched: they trapped with
// invalid_program before and, since the code only shrinks, still do.
void compact(CompiledProgram& p, const std::vector<char>& removed) {
  const std::size_t n = p.code.size();
  std::vector<std::uint32_t> forward(n + 1, 0);
  std::uint32_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    forward[i] = kept;
    if (!removed[i]) ++kept;
  }
  forward[n] = kept;
  if (kept == n) return;

  std::vector<Instr> out;
  out.reserve(kept);
  for (std::size_t i = 0; i < n; ++i) {
    if (!removed[i]) out.push_back(p.code[i]);
  }
  for (auto& instr : out) {
    if (is_branch_op(instr.op) && instr.a >= 0 &&
        static_cast<std::size_t>(instr.a) < n) {
      instr.a =
          static_cast<std::int32_t>(forward[static_cast<std::size_t>(instr.a)]);
    }
  }
  for (auto& fn : p.functions) {
    if (fn.addr < n) fn.addr = forward[fn.addr];
  }
  p.code = std::move(out);
}

// A local slot below every function's frame size is valid in every
// frame; dead load/store pairs on such slots can go without changing
// which programs trap with invalid_program.
std::uint32_t min_frame_size(const CompiledProgram& p) {
  std::uint32_t m = 0xffffffffu;
  for (const auto& fn : p.functions) {
    if (fn.nlocals < m) m = fn.nlocals;
  }
  return m;
}

// Tighter per-instruction bound: when every function's code is a
// contiguous range [addr, next addr) starting at 0, no branch leaves
// its range, and no range can fall through into the next (its last
// instruction is halt, ret or an unconditional jump), then an
// instruction in function f provably executes with locals_size ==
// f.nlocals — calls enter ranges at their start and return to the call
// site's range. Slots below f.nlocals are then trap-free even when
// another function has a smaller frame. Returns empty when the layout
// cannot be proven; callers fall back to min_frame_size.
std::vector<std::uint32_t> per_instr_frame_limit(const CompiledProgram& p) {
  const std::size_t n = p.code.size();
  std::vector<const FunctionInfo*> by_addr;
  by_addr.reserve(p.functions.size());
  for (const auto& fn : p.functions) by_addr.push_back(&fn);
  std::sort(by_addr.begin(), by_addr.end(),
            [](const FunctionInfo* x, const FunctionInfo* y) {
              return x->addr < y->addr;
            });
  if (by_addr.empty() || by_addr.front()->addr != 0) return {};
  for (std::size_t k = 0; k + 1 < by_addr.size(); ++k) {
    if (by_addr[k]->addr == by_addr[k + 1]->addr) return {};
  }

  std::vector<std::uint32_t> limit(n, 0);
  for (std::size_t k = 0; k < by_addr.size(); ++k) {
    const std::size_t lo = by_addr[k]->addr;
    const std::size_t hi =
        k + 1 < by_addr.size() ? by_addr[k + 1]->addr : n;
    if (lo >= n || hi > n) return {};
    for (std::size_t i = lo; i < hi; ++i) {
      const Instr& instr = p.code[i];
      if (is_branch_op(instr.op) &&
          (instr.a < static_cast<std::int64_t>(lo) ||
           instr.a >= static_cast<std::int64_t>(hi))) {
        return {};
      }
      limit[i] = by_addr[k]->nlocals;
    }
    const Op last = p.code[hi - 1].op;
    if (last != Op::halt && last != Op::ret && last != Op::jmp &&
        last != Op::push_jmp) {
      return {};
    }
  }
  return limit;
}

// Constant folding and dead-code elimination over physically adjacent
// instructions. Later rounds (after compaction) catch chains.
bool fold_constants(CompiledProgram& p, OptStats& st) {
  const std::vector<char> lead = compute_leaders(p);
  const std::size_t n = p.code.size();
  const std::uint32_t safe_locals = min_frame_size(p);
  const std::vector<std::uint32_t> frame_limit = per_instr_frame_limit(p);
  std::vector<char> removed(n, 0);
  bool changed = false;

  std::size_t i = 0;
  while (i < n) {
    Instr& a = p.code[i];

    // jmp to the next instruction is a no-op (target must be real so a
    // trapping out-of-range jmp is kept).
    if (a.op == Op::jmp && a.a == static_cast<std::int32_t>(i) + 1 &&
        static_cast<std::size_t>(a.a) < n) {
      removed[i] = 1;
      ++st.dead_eliminated;
      changed = true;
      ++i;
      continue;
    }
    // jz/jnz to the next instruction: both outcomes continue there, so
    // only the pop remains.
    if ((a.op == Op::jz || a.op == Op::jnz) &&
        a.a == static_cast<std::int32_t>(i) + 1 &&
        static_cast<std::size_t>(a.a) < n) {
      a.op = Op::pop;
      a.a = 0;
      ++st.dead_eliminated;
      changed = true;
      ++i;
      continue;
    }

    const std::size_t j = i + 1;
    if (j >= n || removed[j] || lead[j]) {
      ++i;
      continue;
    }
    Instr& b = p.code[j];

    // push k; pop  ->  nothing (push can only trap on stack overflow,
    // a resource limit O1 is allowed to relax).
    if (a.op == Op::push && b.op == Op::pop) {
      removed[i] = removed[j] = 1;
      st.dead_eliminated += 2;
      changed = true;
      i = j + 1;
      continue;
    }
    // load_local s; store_local s  ->  nothing, when s is provably
    // valid in the frame executing it (so no invalid_program trap is
    // being erased).
    if (a.op == Op::load_local && b.op == Op::store_local && a.a == b.a &&
        a.a >= 0 &&
        static_cast<std::uint32_t>(a.a) <
            (frame_limit.empty() ? safe_locals : frame_limit[i])) {
      removed[i] = removed[j] = 1;
      st.dead_eliminated += 2;
      changed = true;
      i = j + 1;
      continue;
    }
    // push k; unop  ->  push (unop k)
    if (a.op == Op::push &&
        (b.op == Op::neg || b.op == Op::logical_not || b.op == Op::abs1)) {
      if (b.op == Op::neg) {
        a.imm = wrap_neg(a.imm);
      } else if (b.op == Op::logical_not) {
        a.imm = a.imm == 0 ? 1 : 0;
      } else if (a.imm < 0) {
        a.imm = wrap_neg(a.imm);
      }
      removed[j] = 1;
      ++st.constants_folded;
      changed = true;
      i = j + 1;
      continue;
    }
    // push k; jz/jnz t  ->  jmp t or nothing: the branch is decided.
    if (a.op == Op::push && (b.op == Op::jz || b.op == Op::jnz)) {
      const bool taken = (b.op == Op::jz) == (a.imm == 0);
      if (taken) {
        a.op = Op::jmp;
        a.a = b.a;
        a.imm = 0;
        removed[j] = 1;
      } else {
        removed[i] = removed[j] = 1;
      }
      ++st.constants_folded;
      changed = true;
      i = j + 1;
      continue;
    }
    // push x; push y; binop  ->  push (x binop y)
    if (a.op == Op::push && b.op == Op::push) {
      const std::size_t k = j + 1;
      if (k < n && !removed[k] && !lead[k]) {
        const Op op3 = p.code[k].op;
        bool folded = true;
        std::int64_t v = 0;
        if (op3 == Op::add) {
          v = wrap_add(a.imm, b.imm);
        } else if (op3 == Op::sub) {
          v = wrap_sub(a.imm, b.imm);
        } else if (op3 == Op::mul) {
          v = wrap_mul(a.imm, b.imm);
        } else if (op3 == Op::div_ && b.imm != 0) {
          v = b.imm == -1 ? wrap_neg(a.imm) : a.imm / b.imm;
        } else if (op3 == Op::mod_ && b.imm != 0) {
          v = b.imm == -1 ? 0 : a.imm % b.imm;
        } else if (is_cmp(op3)) {
          v = eval_cmp(op3, a.imm, b.imm);
        } else if (op3 == Op::min2) {
          v = a.imm < b.imm ? a.imm : b.imm;
        } else if (op3 == Op::max2) {
          v = a.imm > b.imm ? a.imm : b.imm;
        } else {
          folded = false;  // div/mod by zero stay to trap at run time
        }
        if (folded) {
          a.imm = v;
          removed[j] = removed[k] = 1;
          ++st.constants_folded;
          changed = true;
          i = k + 1;
          continue;
        }
      }
    }
    ++i;
  }

  if (changed) compact(p, removed);
  return changed;
}

// Retargets branches whose destination is an unconditional jmp.
bool thread_jumps(CompiledProgram& p, OptStats& st) {
  const std::size_t n = p.code.size();
  bool changed = false;
  for (auto& instr : p.code) {
    if (!is_branch_op(instr.op)) continue;
    std::int32_t t = instr.a;
    int hops = 0;
    while (hops < 8 && t >= 0 && static_cast<std::size_t>(t) < n &&
           p.code[static_cast<std::size_t>(t)].op == Op::jmp &&
           p.code[static_cast<std::size_t>(t)].a != t) {
      t = p.code[static_cast<std::size_t>(t)].a;
      ++hops;
    }
    if (t != instr.a) {
      instr.a = t;
      ++st.jumps_threaded;
      changed = true;
    }
    // A jmp landing on ret or halt might as well *be* that instruction:
    // same effect, one dispatch fewer, and it cannot erase a trap (the
    // target would have executed immediately anyway).
    if (instr.op == Op::jmp && t >= 0 && static_cast<std::size_t>(t) < n) {
      const Op target = p.code[static_cast<std::size_t>(t)].op;
      if (target == Op::ret || target == Op::halt) {
        instr.op = target;
        instr.a = 0;
        ++st.jumps_threaded;
        changed = true;
      }
    }
  }
  return changed;
}

// Pairwise superinstruction fusion. Every fused form preserves the trap
// behavior of the sequence it replaces (same checks, same order); the
// only divergence is needing less operand-stack headroom, which is a
// resource relaxation. Repeated rounds build 3-wide fusions
// (push; cmp; jz  ->  cmp_imm; jz  ->  cmp_imm_jz).
bool fuse_pairs(CompiledProgram& p, OptStats& st) {
  const std::vector<char> lead = compute_leaders(p);
  const std::size_t n = p.code.size();
  std::vector<char> removed(n, 0);
  bool changed = false;

  std::size_t i = 0;
  while (i + 1 < n) {
    Instr& a = p.code[i];
    const std::size_t j = i + 1;
    if (removed[i] || removed[j] || lead[j]) {
      ++i;
      continue;
    }
    Instr& b = p.code[j];
    bool fused = true;

    // Triple window first: load_local s; add_imm k; store_local s ->
    // inc_local s, k. One slot check replaces three (same slot each
    // time); the value never transits the operand stack, which is the
    // usual resource relaxation.
    if (a.op == Op::load_local && j + 1 < n && !removed[j + 1] &&
        !lead[j + 1] && b.op == Op::add_imm &&
        p.code[j + 1].op == Op::store_local && p.code[j + 1].a == a.a) {
      a.op = Op::inc_local;
      a.imm = b.imm;
      removed[j] = removed[j + 1] = 1;
      ++st.fused;
      changed = true;
      i = j + 2;
      continue;
    }

    if (is_cmp_imm(a.op) && b.op == Op::jz) {
      a.op = cmp_imm_to_imm_jz(a.op);
      a.a = b.a;
    } else if (is_cmp_imm(a.op) && b.op == Op::jnz) {
      a.op = cmp_imm_to_imm_jz(
          cmp_to_imm(invert_cmp(cmp_offset(Op::cmp_eq, a.op, Op::cmp_eq_imm))));
      a.a = b.a;
    } else if (is_cmp(a.op) && b.op == Op::jz) {
      a.op = cmp_to_jz(a.op);
      a.a = b.a;
    } else if (is_cmp(a.op) && b.op == Op::jnz) {
      a.op = cmp_to_jz(invert_cmp(a.op));
      a.a = b.a;
    } else if (a.op == Op::push && b.op == Op::add) {
      a.op = Op::add_imm;
    } else if (a.op == Op::push && b.op == Op::sub) {
      a.op = Op::add_imm;
      a.imm = wrap_neg(a.imm);
    } else if (a.op == Op::push && b.op == Op::mul) {
      a.op = Op::mul_imm;
    } else if (a.op == Op::push && is_cmp(b.op)) {
      a.op = cmp_to_imm(b.op);
    } else if (a.op == Op::store_local && b.op == Op::load_local &&
               a.a == b.a) {
      a.op = Op::tee_local;
    } else if (a.op == Op::load_local && b.op == Op::load_local) {
      a.op = Op::load_local2;
      a.imm = b.a;
    } else if (a.op == Op::load_state && b.op == Op::push &&
               !(j + 1 < n && !lead[j + 1] &&
                 consumes_pushed_imm(p.code[j + 1].op))) {
      // Lookahead: if the instruction after the push would itself fuse
      // with it (push; add -> add_imm beats load_state_push; add), leave
      // the push for that stronger pair.
      a.op = Op::load_state_push;
      a.imm = b.imm;
    } else if (a.op == Op::push && b.op == Op::jmp) {
      a.op = Op::push_jmp;
      a.a = b.a;
    } else if (a.op == Op::store_local && b.op == Op::store_local) {
      a.op = Op::store_local2;
      a.imm = b.a;
    } else if (a.op == Op::add_imm && b.op == Op::array_load) {
      a.op = Op::array_load_off;
      a.a = b.a;
    } else if (a.op == Op::mul_imm && b.op == Op::array_load) {
      a.op = Op::array_load_mul;
      a.a = b.a;
    } else if (a.op == Op::mul_imm && b.op == Op::array_load_off &&
               a.imm >= 0 && a.imm < (std::int64_t{1} << 31) && b.imm >= 0 &&
               b.imm < (std::int64_t{1} << 31)) {
      // idx = tos * stride + offset, the record-field access shape.
      // Both halves must fit their 32-bit lanes so the interpreter's
      // unpack reproduces the original constants exactly; other values
      // stay unfused rather than change wrap behavior.
      a.op = Op::array_load_rec;
      a.imm = static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(a.imm) << 32) |
          static_cast<std::uint64_t>(b.imm));
      a.a = b.a;
    } else {
      fused = false;
    }

    if (fused) {
      removed[j] = 1;
      ++st.fused;
      changed = true;
      i = j + 1;
    } else {
      ++i;
    }
  }

  if (changed) compact(p, removed);
  return changed;
}

}  // namespace

CompiledProgram optimize(CompiledProgram program, OptLevel level,
                         OptStats* stats) {
  OptStats local;
  local.instructions_before = program.code.size();
  local.instructions_after = program.code.size();
  if (level == OptLevel::O0 || program.code.empty()) {
    if (stats != nullptr) *stats = local;
    return program;
  }

  // Fold and thread to a fixpoint before fusing: fusion consumes the
  // push/cmp shapes folding matches on, so running it early would strand
  // foldable constants inside _imm superinstructions. Each structural
  // pass strictly shrinks the program (threading only rewrites
  // operands), so the cap is a safety net, not a tuning knob.
  for (int round = 0; round < 16; ++round) {
    bool changed = false;
    changed |= fold_constants(program, local);
    changed |= thread_jumps(program, local);
    if (!changed) changed = fuse_pairs(program, local);
    if (!changed) break;
  }

  local.instructions_after = program.code.size();
  if (stats != nullptr) *stats = local;
  program.preverified = false;  // structure changed; caller must re-verify
  return program;
}

void verify_program(const CompiledProgram& p, const StateSchema& schema,
                    const ExecLimits& limits) {
  auto err = [](const std::string& msg) {
    throw LangError("verify: " + msg, SourceLoc{});
  };

  if (p.functions.empty()) err("program has no functions");
  if (p.code.empty()) err("program has no code");
  const std::size_t n = p.code.size();

  for (const auto& fn : p.functions) {
    if (fn.addr >= n) err("function '" + fn.name + "' entry out of range");
    if (fn.nargs > fn.nlocals) {
      err("function '" + fn.name + "' declares more args than locals");
    }
  }
  if (p.functions[0].nlocals > limits.max_locals) {
    err("entry frame exceeds the locals limit");
  }

  // The schema's read-only fields as usage-mask bits, scalar and array
  // slots apart (each kind numbers its slots in declaration order).
  std::uint64_t read_only_scalars[kNumScopes] = {0, 0, 0};
  std::uint64_t read_only_arrays[kNumScopes] = {0, 0, 0};
  for (int s = 0; s < kNumScopes; ++s) {
    std::size_t scalars = 0;
    std::size_t arrays = 0;
    for (const FieldDef& f : schema.fields(static_cast<Scope>(s))) {
      const bool scalar = f.kind == FieldKind::scalar;
      std::size_t& slot = scalar ? scalars : arrays;
      if (f.access == Access::read_only && slot < 64) {
        (scalar ? read_only_scalars : read_only_arrays)[s] |=
            std::uint64_t{1} << slot;
      }
      ++slot;
    }
  }
  // The state the code actually reads and writes, as usage masks.
  StateUsage code;
  const auto note = [&](std::uint64_t* masks, std::int32_t a, std::size_t i) {
    if (operand_slot(a) >= 64) {
      err("state slot beyond the usage masks at instruction " +
          std::to_string(i));
    }
    masks[static_cast<int>(operand_scope(a))] |= std::uint64_t{1}
                                                 << operand_slot(a);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Instr& instr = p.code[i];
    const auto opb = static_cast<std::uint8_t>(instr.op);
    if (opb >= kNumOpcodes) {
      err("invalid opcode at instruction " + std::to_string(i));
    }
    if (is_branch_op(instr.op)) {
      if (instr.a < 0 || static_cast<std::size_t>(instr.a) >= n) {
        err("branch target out of range at instruction " + std::to_string(i));
      }
      continue;
    }
    switch (instr.op) {
      case Op::call:
        if (instr.a < 0 ||
            static_cast<std::size_t>(instr.a) >= p.functions.size()) {
          err("bad function index at instruction " + std::to_string(i));
        }
        break;
      case Op::load_local:
      case Op::store_local:
      case Op::tee_local:
      case Op::load_local2:
      case Op::inc_local:
      case Op::store_local2:
        if (instr.a < 0 ||
            static_cast<std::uint32_t>(instr.a) >= limits.max_locals) {
          err("local slot exceeds limit at instruction " + std::to_string(i));
        }
        if ((instr.op == Op::load_local2 || instr.op == Op::store_local2) &&
            (instr.imm < 0 ||
             static_cast<std::uint64_t>(instr.imm) >= limits.max_locals)) {
          err("local slot exceeds limit at instruction " + std::to_string(i));
        }
        break;
      case Op::load_state:
      case Op::store_state:
      case Op::load_state_push: {
        const auto scope = static_cast<std::uint32_t>((instr.a >> 16) & 0xff);
        if (scope >= static_cast<std::uint32_t>(kNumScopes)) {
          err("bad state scope at instruction " + std::to_string(i));
        }
        if (operand_slot(instr.a) >=
            schema.scalar_count(static_cast<Scope>(scope))) {
          err("scalar slot outside schema at instruction " +
              std::to_string(i));
        }
        if (instr.op == Op::store_state) {
          note(code.scalar_write, instr.a, i);
          if ((read_only_scalars[scope] >> operand_slot(instr.a)) & 1) {
            err("store to a read-only field at instruction " +
                std::to_string(i));
          }
        } else {
          note(code.scalar_read, instr.a, i);
        }
        break;
      }
      case Op::array_load:
      case Op::array_store:
      case Op::array_len:
      case Op::array_load_off:
      case Op::array_load_mul:
      case Op::array_load_rec: {
        const auto scope = static_cast<std::uint32_t>((instr.a >> 16) & 0xff);
        if (scope >= static_cast<std::uint32_t>(kNumScopes)) {
          err("bad state scope at instruction " + std::to_string(i));
        }
        if (operand_slot(instr.a) >=
            schema.array_count(static_cast<Scope>(scope))) {
          err("array slot outside schema at instruction " + std::to_string(i));
        }
        if (instr.op == Op::array_store) {
          note(code.array_write, instr.a, i);
          if ((read_only_arrays[scope] >> operand_slot(instr.a)) & 1) {
            err("store to a read-only field at instruction " +
                std::to_string(i));
          }
        } else {
          note(code.array_read, instr.a, i);
        }
        break;
      }
      default:
        break;
    }
  }

  // The runtime takes its locks and materializes message state from the
  // declared masks and mode, which travel with the code: they may claim
  // more than the code does, never less, and the mode must cover the
  // writes the masks declare.
  for (int s = 0; s < kNumScopes; ++s) {
    const StateUsage& u = p.usage;
    if ((code.scalar_read[s] & ~u.scalar_read[s]) != 0 ||
        (code.scalar_write[s] & ~u.scalar_write[s]) != 0 ||
        (code.array_read[s] & ~u.array_read[s]) != 0 ||
        (code.array_write[s] & ~u.array_write[s]) != 0) {
      err("usage masks understate the code's " +
          std::string(scope_name(static_cast<Scope>(s))) + " state accesses");
    }
  }
  const ConcurrencyMode needed = p.usage.required_concurrency();
  if (p.concurrency < needed) {
    err("concurrency mode '" +
        std::string(concurrency_mode_name(p.concurrency)) +
        "' understates the '" + std::string(concurrency_mode_name(needed)) +
        "' its state writes need");
  }

  // The pre-verified dispatch path skips the per-instruction pc bounds
  // check, so control must never fall off the end: the last instruction
  // has to leave the machine (halt), jump to a verified target (jmp) or
  // return (ret). Everything else could fall through to pc == n, and a
  // call here would record pc == n as its return address.
  const Op last = p.code.back().op;
  if (last != Op::halt && last != Op::jmp && last != Op::ret &&
      last != Op::push_jmp) {
    err("control flow can run past the end of the code");
  }
}

}  // namespace eden::lang
