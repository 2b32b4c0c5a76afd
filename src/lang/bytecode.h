// Bytecode for the Eden enclave interpreter.
//
// The paper compiles action functions to bytecode executed by a
// stack-based interpreter "similar in spirit to the JVM" (Section 4.1),
// so the same program can run in the OS enclave and on a programmable
// NIC. CompiledProgram is that artifact: a flat instruction vector plus a
// function table, the derived concurrency mode, and the state-usage masks
// the runtime needs to marshal state in and out. It serializes to a
// portable byte stream (see serialize/deserialize) to model shipping
// programs from the controller to heterogeneous enclaves.
//
// The opcode set comes in two tiers. The base tier (push..halt) is what
// the compiler emits; its numbering is frozen by wire format version 1.
// The fused tier after `halt` holds superinstructions produced only by
// the optimizer (src/lang/optimizer.h): each one collapses a common
// 2- or 3-instruction sequence into a single dispatch. The second value
// in EDEN_OPCODE_LIST is the instruction's *step cost* — the number of
// base instructions it stands for — so ExecResult::steps keeps the same
// meaning at every optimization level (Fig. 12 overhead accounting).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lang/state_schema.h"

namespace eden::lang {

// X(name, step_cost). Order is the wire encoding; append only.
#define EDEN_OPCODE_LIST(X)                                                  \
  /* Stack / constants */                                                    \
  X(push, 1)        /* push imm */                                           \
  X(pop, 1)         /* discard top */                                        \
  X(dup, 1)         /* duplicate top */                                      \
  /* Locals (frame-relative slot in `a`) */                                  \
  X(load_local, 1)                                                           \
  X(store_local, 1)                                                          \
  /* State scalars (`a` = scope << 16 | slot) */                             \
  X(load_state, 1)                                                           \
  X(store_state, 1)                                                          \
  /* State arrays (`a` = scope << 16 | slot) */                              \
  X(array_load, 1)  /* pops flat element index, pushes value */              \
  X(array_store, 1) /* pops value then flat element index, stores */         \
  X(array_len, 1)   /* pushes element count (records count as one) */       \
  /* Arithmetic (int64; div/mod trap on zero divisor) */                     \
  X(add, 1)                                                                  \
  X(sub, 1)                                                                  \
  X(mul, 1)                                                                  \
  X(div_, 1)                                                                 \
  X(mod_, 1)                                                                 \
  X(neg, 1)                                                                  \
  /* Comparisons / logic (produce 0 or 1) */                                 \
  X(cmp_eq, 1)                                                               \
  X(cmp_ne, 1)                                                               \
  X(cmp_lt, 1)                                                               \
  X(cmp_le, 1)                                                               \
  X(cmp_gt, 1)                                                               \
  X(cmp_ge, 1)                                                               \
  X(logical_not, 1)                                                          \
  /* Control flow (`a` = absolute instruction index) */                      \
  X(jmp, 1)                                                                  \
  X(jz, 1)  /* jump if popped value == 0 */                                  \
  X(jnz, 1)                                                                  \
  /* Functions (`a` = function table index) */                               \
  X(call, 1)                                                                 \
  X(ret, 1) /* pops return value, restores caller frame, pushes it */        \
  /* Built-ins */                                                            \
  X(rand_below, 1) /* pops n > 0, pushes uniform integer in [0, n) */        \
  X(clock_ns, 1)   /* pushes the runtime clock in nanoseconds */             \
  X(min2, 1)                                                                 \
  X(max2, 1)                                                                 \
  X(abs1, 1)                                                                 \
  X(halt, 1) /* ends the program; result = top of stack (0 if empty) */      \
  /* ---- Fused superinstructions (optimizer output only; wire v2) ---- */   \
  X(add_imm, 2)         /* push imm; add            tos += imm */            \
  X(mul_imm, 2)         /* push imm; mul            tos *= imm */            \
  X(tee_local, 2)       /* store_local a; load_local a  (tos kept) */        \
  X(load_local2, 2)     /* load_local a; load_local imm */                   \
  X(load_state_push, 2) /* load_state a; push imm */                         \
  X(cmp_eq_imm, 2)      /* push imm; cmp_eq         tos = tos == imm */      \
  X(cmp_ne_imm, 2)                                                           \
  X(cmp_lt_imm, 2)                                                           \
  X(cmp_le_imm, 2)                                                           \
  X(cmp_gt_imm, 2)                                                           \
  X(cmp_ge_imm, 2)                                                           \
  X(cmp_eq_jz, 2)       /* cmp_eq; jz a   pop b, pop x; if !(x==b) jump */   \
  X(cmp_ne_jz, 2)                                                            \
  X(cmp_lt_jz, 2)                                                            \
  X(cmp_le_jz, 2)                                                            \
  X(cmp_gt_jz, 2)                                                            \
  X(cmp_ge_jz, 2)                                                            \
  X(cmp_eq_imm_jz, 3)   /* push imm; cmp_eq; jz a   pop x; if !(x==imm) */   \
  X(cmp_ne_imm_jz, 3)                                                        \
  X(cmp_lt_imm_jz, 3)                                                        \
  X(cmp_le_imm_jz, 3)                                                        \
  X(cmp_gt_imm_jz, 3)                                                        \
  X(cmp_ge_imm_jz, 3)                                                        \
  X(push_jmp, 2)        /* push imm; jmp a */                                \
  X(inc_local, 3)       /* load_local a; add_imm k; store_local a */         \
  X(store_local2, 2)    /* store_local a; store_local imm */                 \
  X(array_load_off, 3)  /* add_imm k; array_load    idx = tos + k */         \
  X(array_load_mul, 3)  /* mul_imm s; array_load    idx = tos * s */         \
  X(array_load_rec, 5)  /* mul_imm s; add_imm k; array_load                  \
                           (imm = s << 32 | k)      idx = tos * s + k */

enum class Op : std::uint8_t {
#define EDEN_OP_ENUM(name, cost) name,
  EDEN_OPCODE_LIST(EDEN_OP_ENUM)
#undef EDEN_OP_ENUM
};

// Step cost per opcode: how many base instructions the op accounts for.
inline constexpr std::uint32_t kOpStepCost[] = {
#define EDEN_OP_COST(name, cost) cost,
    EDEN_OPCODE_LIST(EDEN_OP_COST)
#undef EDEN_OP_COST
};

inline constexpr std::size_t kNumOpcodes =
    sizeof(kOpStepCost) / sizeof(kOpStepCost[0]);
inline constexpr std::uint8_t kMaxOpByte =
    static_cast<std::uint8_t>(kNumOpcodes - 1);

inline constexpr std::uint32_t op_step_cost(Op op) {
  return kOpStepCost[static_cast<std::uint8_t>(op)];
}

// Ops after `halt` exist only in optimized programs (wire format v2).
inline constexpr bool is_fused_op(Op op) {
  return static_cast<std::uint8_t>(op) >
         static_cast<std::uint8_t>(Op::halt);
}

// Does `a` carry an absolute instruction index (branch target)?
inline constexpr bool is_branch_op(Op op) {
  switch (op) {
    case Op::jmp:
    case Op::jz:
    case Op::jnz:
    case Op::cmp_eq_jz:
    case Op::cmp_ne_jz:
    case Op::cmp_lt_jz:
    case Op::cmp_le_jz:
    case Op::cmp_gt_jz:
    case Op::cmp_ge_jz:
    case Op::cmp_eq_imm_jz:
    case Op::cmp_ne_imm_jz:
    case Op::cmp_lt_imm_jz:
    case Op::cmp_le_imm_jz:
    case Op::cmp_gt_imm_jz:
    case Op::cmp_ge_imm_jz:
    case Op::push_jmp:
      return true;
    default:
      return false;
  }
}

std::string_view op_name(Op op);

// Optimization level for the compile -> optimize -> install pipeline.
// O0 is the direct compiler output; O1 runs the peephole optimizer
// (constant folding, dead push/pop elimination, jump threading,
// superinstruction fusion). O1 never changes results for valid
// programs; it may use *fewer* resources (steps, stack), so resource
// traps that fire exactly at a limit under O0 can succeed under O1.
enum class OptLevel : std::uint8_t {
  O0 = 0,
  O1 = 1,
};

// Fixed-width instruction word. `a` carries slot/target/function operands;
// `imm` carries push constants. A fixed width costs a little space but
// keeps decode trivial — the paper makes the same simplicity trade-off.
// Fused ops use both fields, e.g. cmp_lt_imm_jz compares against `imm`
// and branches to `a`; load_local2 loads slots `a` then `imm`.
struct Instr {
  Op op = Op::halt;
  std::int32_t a = 0;
  std::int64_t imm = 0;
};

inline constexpr std::int32_t state_operand(Scope scope, std::uint16_t slot) {
  return (static_cast<std::int32_t>(scope) << 16) | slot;
}
inline constexpr Scope operand_scope(std::int32_t a) {
  return static_cast<Scope>((a >> 16) & 0xff);
}
inline constexpr std::uint16_t operand_slot(std::int32_t a) {
  return static_cast<std::uint16_t>(a & 0xffff);
}

struct FunctionInfo {
  std::string name;
  std::uint32_t addr = 0;    // entry instruction index
  std::uint16_t nargs = 0;   // explicit args + captured values
  std::uint16_t nlocals = 0; // total frame size including args
};

// Concurrency mode derived from the state access annotations
// (Section 3.4.4): writable global state fully serializes the function;
// writable message state serializes packets of the same message; a
// function that only writes packet state can run fully in parallel.
// Ordered from weakest to strongest.
enum class ConcurrencyMode : std::uint8_t {
  parallel = 0,
  per_message = 1,
  serialized = 2,
};

std::string_view concurrency_mode_name(ConcurrencyMode mode);

// Which state slots a program touches, as bitmasks (bit i = slot i).
// The enclave runtime consults these to copy in only what the function
// reads and to write back only what it may have written.
struct StateUsage {
  std::uint64_t scalar_read[kNumScopes] = {0, 0, 0};
  std::uint64_t scalar_write[kNumScopes] = {0, 0, 0};
  std::uint64_t array_read[kNumScopes] = {0, 0, 0};
  std::uint64_t array_write[kNumScopes] = {0, 0, 0};

  bool writes_scope(Scope scope) const {
    const int s = static_cast<int>(scope);
    return scalar_write[s] != 0 || array_write[s] != 0;
  }
  bool touches_scope(Scope scope) const {
    const int s = static_cast<int>(scope);
    return scalar_read[s] != 0 || array_read[s] != 0 || writes_scope(scope);
  }
  // The weakest mode these writes allow.
  ConcurrencyMode required_concurrency() const {
    if (writes_scope(Scope::global)) return ConcurrencyMode::serialized;
    if (writes_scope(Scope::message)) return ConcurrencyMode::per_message;
    return ConcurrencyMode::parallel;
  }
};

struct CompiledProgram {
  std::vector<Instr> code;
  std::vector<FunctionInfo> functions;  // functions[0] is the entry point
  ConcurrencyMode concurrency = ConcurrencyMode::parallel;
  StateUsage usage;
  std::string source_name;  // diagnostic label, not semantically meaningful

  // Set only after verify_program (optimizer.h) succeeded against the
  // schema and limits the program will run under; lets the interpreter
  // take the pre-verified fast path. Never serialized: a program
  // arriving over the wire must be re-verified by its installer.
  bool preverified = false;

  // Portable binary encoding (little-endian, "EDBC" magic + version).
  // Version 1 covers the base opcode tier; programs containing fused
  // superinstructions are written as version 2.
  std::vector<std::uint8_t> serialize() const;
  // Throws LangError on malformed input.
  static CompiledProgram deserialize(std::span<const std::uint8_t> bytes);
};

}  // namespace eden::lang
