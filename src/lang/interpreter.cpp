#include "lang/interpreter.h"

#include <chrono>

#include "telemetry/metrics.h"  // now_ticks(): header-inline, no link dep

namespace eden::lang {

std::string_view exec_status_name(ExecStatus status) {
  switch (status) {
    case ExecStatus::ok: return "ok";
    case ExecStatus::div_by_zero: return "div_by_zero";
    case ExecStatus::out_of_bounds: return "out_of_bounds";
    case ExecStatus::bad_state_slot: return "bad_state_slot";
    case ExecStatus::stack_overflow: return "stack_overflow";
    case ExecStatus::stack_underflow: return "stack_underflow";
    case ExecStatus::local_overflow: return "local_overflow";
    case ExecStatus::call_depth_exceeded: return "call_depth_exceeded";
    case ExecStatus::fuel_exhausted: return "fuel_exhausted";
    case ExecStatus::bad_rand_bound: return "bad_rand_bound";
    case ExecStatus::invalid_program: return "invalid_program";
  }
  return "?";
}

namespace {

std::int64_t default_clock(void*) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wrapping arithmetic without signed-overflow UB.
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

}  // namespace

Interpreter::Interpreter(ExecLimits limits, std::uint64_t rng_seed)
    : limits_(limits), rng_(rng_seed) {
  // One extra slot in front of the operand stack: the top-of-stack
  // register scheme below unconditionally flushes `tos` into
  // spill[sp - 1], which for sp == 0 lands in this scratch slot.
  stack_.resize(static_cast<std::size_t>(limits_.max_operand_stack) + 1);
  locals_.resize(limits_.max_locals);
  frames_.reserve(limits_.max_call_depth);
}

ExecResult Interpreter::execute(const CompiledProgram& program,
                                StateBlock* packet, StateBlock* message,
                                StateBlock* global) {
  if (profile_ != nullptr) {
    if (program.preverified) {
      return execute_impl<true, true>(program, packet, message, global);
    }
    return execute_impl<false, true>(program, packet, message, global);
  }
  if (program.preverified) {
    return execute_impl<true, false>(program, packet, message, global);
  }
  return execute_impl<false, false>(program, packet, message, global);
}

// Operand-stack representation: the stack holds `sp` elements; elements
// [0, sp-2] live in spill[0..sp-2] and the top element lives in the
// `tos` register. spill[j] for j >= sp-1 is stale. spill points one
// past a scratch slot so the branch-free flush spill[sp-1] = tos is
// in-bounds even at sp == 0.
//
// Trusted mode (program.preverified) skips only checks that
// verify_program establishes statically: per-dispatch pc bounds, opcode
// range, state-operand scope, function index and nargs <= nlocals. All
// data-dependent guards — operand-stack depth, locals bounds, array
// bounds, call depth, fuel, null state blocks — run in both modes.
//
// Profiled mode (profile_ set) bumps a per-pc execution count on every
// fetch and, every profile_cycle_every_ fetches, attributes the ticks
// elapsed since the previous sample to the pc observed now. It is a
// separate instantiation so the normal data path carries no profiling
// branches at all.
template <bool Trusted, bool Profiled>
ExecResult Interpreter::execute_impl(const CompiledProgram& program,
                                     StateBlock* packet, StateBlock* message,
                                     StateBlock* global) {
  ExecResult result;
  if (program.functions.empty() || program.code.empty()) {
    result.status = ExecStatus::invalid_program;
    return result;
  }

  StateBlock* blocks[kNumScopes] = {packet, message, global};
  const Instr* const code = program.code.data();
  const std::size_t code_size = program.code.size();
  const std::uint32_t stack_cap = limits_.max_operand_stack;
  std::int64_t* const spill = stack_.data() + 1;
  std::int64_t* const locals = locals_.data();

  std::uint32_t pc = program.functions[0].addr;
  std::uint32_t sp = 0;
  std::int64_t tos = 0;
  std::uint32_t base = 0;  // locals base of the current frame
  std::uint32_t locals_size = program.functions[0].nlocals;
  if (locals_size > limits_.max_locals) {
    result.status = ExecStatus::local_overflow;
    return result;
  }
  for (std::uint32_t i = 0; i < locals_size; ++i) locals[i] = 0;
  frames_.clear();

  result.max_locals = locals_size;
  const std::uint64_t max_steps = limits_.max_steps;
  std::uint64_t steps = 0;
  std::uint32_t max_stack = 0;
  Instr instr{};
  std::uint8_t opb = 0;

  // Profiling state kept in locals so the fetch hook is a raw-pointer
  // add; the arrays are sized to the full code once up front.
  std::uint64_t* prof_counts = nullptr;
  std::uint64_t* prof_ticks = nullptr;
  std::uint32_t prof_cycle_every = 0;
  std::uint32_t prof_countdown = 0;
  std::uint64_t prof_last_tick = 0;
  if constexpr (Profiled) {
    profile_->ensure(code_size);
    ++profile_->runs;
    prof_counts = profile_->counts.data();
    prof_ticks = profile_->ticks.data();
    prof_cycle_every = profile_cycle_every_;
    // The countdown persists across executions (so short programs still
    // sample); the tick base resets here so a sample's delta never
    // includes time spent between executions.
    prof_countdown = profile_countdown_ != 0 ? profile_countdown_
                                             : prof_cycle_every;
    if (prof_cycle_every != 0) prof_last_tick = telemetry::now_ticks();
  }

#define EDEN_FAIL(st)                 \
  do {                                \
    result.status = ExecStatus::st;   \
    goto exec_done;                   \
  } while (0)

#define EDEN_NEED(n)                                 \
  do {                                               \
    if (sp < (n)) EDEN_FAIL(stack_underflow);        \
  } while (0)

#define EDEN_PUSH(v)                                          \
  do {                                                        \
    if (sp >= stack_cap) EDEN_FAIL(stack_overflow);           \
    spill[static_cast<std::ptrdiff_t>(sp) - 1] = tos;         \
    tos = (v);                                                \
    ++sp;                                                     \
    if (sp > max_stack) max_stack = sp;                       \
  } while (0)

#define EDEN_DROP()                                           \
  do {                                                        \
    --sp;                                                     \
    tos = spill[static_cast<std::ptrdiff_t>(sp) - 1];         \
  } while (0)

#define EDEN_BINOP(expr)                                             \
  do {                                                               \
    EDEN_NEED(2);                                                    \
    const std::int64_t rhs = tos;                                    \
    const std::int64_t lhs = spill[static_cast<std::ptrdiff_t>(sp) - 2]; \
    tos = (expr);                                                    \
    --sp;                                                            \
  } while (0)

// Fetch order matches the original interpreter exactly: pc bounds, then
// fuel, then decode. Fused ops charge the step count of the sequence
// they replaced (kOpStepCost) so Fig. 12-style accounting is stable
// across optimization levels.
#define EDEN_FETCH()                                                      \
  do {                                                                    \
    if constexpr (!Trusted) {                                             \
      if (pc >= code_size) EDEN_FAIL(invalid_program);                    \
    }                                                                     \
    if (max_steps != 0 && steps >= max_steps) EDEN_FAIL(fuel_exhausted);  \
    if constexpr (Profiled) {                                             \
      ++prof_counts[pc];                                                  \
      if (prof_cycle_every != 0 && --prof_countdown == 0) {               \
        prof_countdown = prof_cycle_every;                                \
        const std::uint64_t prof_t = telemetry::now_ticks();              \
        prof_ticks[pc] += prof_t - prof_last_tick;                        \
        prof_last_tick = prof_t;                                          \
      }                                                                   \
    }                                                                     \
    instr = code[pc++];                                                   \
    opb = static_cast<std::uint8_t>(instr.op);                            \
    if constexpr (!Trusted) {                                             \
      if (opb >= kNumOpcodes) EDEN_FAIL(invalid_program);                 \
    }                                                                     \
    steps += kOpStepCost[opb];                                            \
  } while (0)

// Threaded (computed-goto) dispatch: every opcode body ends by fetching
// the next instruction and jumping straight to its label. GCC and Clang,
// the only compilers that build this tree, both support it.
#define EDEN_CASE(name) L_##name:
#define EDEN_NEXT()                \
  do {                             \
    EDEN_FETCH();                  \
    goto* jump_table[opb];         \
  } while (0)

  static const void* const jump_table[] = {
#define EDEN_OP_LABEL(name, cost) &&L_##name,
      EDEN_OPCODE_LIST(EDEN_OP_LABEL)
#undef EDEN_OP_LABEL
  };
  static_assert(sizeof(jump_table) / sizeof(jump_table[0]) == kNumOpcodes);
  EDEN_NEXT();

      EDEN_CASE(push) {
        EDEN_PUSH(instr.imm);
      }
      EDEN_NEXT();

      EDEN_CASE(pop) {
        EDEN_NEED(1);
        EDEN_DROP();
      }
      EDEN_NEXT();

      EDEN_CASE(dup) {
        EDEN_NEED(1);
        EDEN_PUSH(tos);
      }
      EDEN_NEXT();

      EDEN_CASE(load_local) {
        const std::uint32_t slot = base + static_cast<std::uint32_t>(instr.a);
        if (slot >= locals_size) EDEN_FAIL(invalid_program);
        EDEN_PUSH(locals[slot]);
      }
      EDEN_NEXT();

      EDEN_CASE(store_local) {
        EDEN_NEED(1);
        const std::uint32_t slot = base + static_cast<std::uint32_t>(instr.a);
        if (slot >= locals_size) EDEN_FAIL(invalid_program);
        locals[slot] = tos;
        EDEN_DROP();
      }
      EDEN_NEXT();

      EDEN_CASE(load_state) {
        const auto scope_index =
            static_cast<std::uint32_t>((instr.a >> 16) & 0xff);
        if constexpr (!Trusted) {
          if (scope_index >= static_cast<std::uint32_t>(kNumScopes)) {
            EDEN_FAIL(invalid_program);
          }
        }
        StateBlock* block = blocks[scope_index];
        const std::uint16_t slot = operand_slot(instr.a);
        if (block == nullptr || slot >= block->scalars.size()) {
          EDEN_FAIL(bad_state_slot);
        }
        EDEN_PUSH(block->scalars[slot]);
      }
      EDEN_NEXT();

      EDEN_CASE(store_state) {
        EDEN_NEED(1);
        const auto scope_index =
            static_cast<std::uint32_t>((instr.a >> 16) & 0xff);
        if constexpr (!Trusted) {
          if (scope_index >= static_cast<std::uint32_t>(kNumScopes)) {
            EDEN_FAIL(invalid_program);
          }
        }
        StateBlock* block = blocks[scope_index];
        const std::uint16_t slot = operand_slot(instr.a);
        if (block == nullptr || slot >= block->scalars.size()) {
          EDEN_FAIL(bad_state_slot);
        }
        block->scalars[slot] = tos;
        EDEN_DROP();
      }
      EDEN_NEXT();

      EDEN_CASE(array_load) {
        EDEN_NEED(1);
        const auto scope_index =
            static_cast<std::uint32_t>((instr.a >> 16) & 0xff);
        if constexpr (!Trusted) {
          if (scope_index >= static_cast<std::uint32_t>(kNumScopes)) {
            EDEN_FAIL(invalid_program);
          }
        }
        StateBlock* block = blocks[scope_index];
        const std::uint16_t slot = operand_slot(instr.a);
        if (block == nullptr || slot >= block->arrays.size()) {
          EDEN_FAIL(bad_state_slot);
        }
        const ArrayValue& arr = block->arrays[slot];
        if (tos < 0 || tos >= static_cast<std::int64_t>(arr.data.size())) {
          EDEN_FAIL(out_of_bounds);
        }
        tos = arr.data[static_cast<std::size_t>(tos)];
      }
      EDEN_NEXT();

      EDEN_CASE(array_store) {
        EDEN_NEED(2);
        const auto scope_index =
            static_cast<std::uint32_t>((instr.a >> 16) & 0xff);
        if constexpr (!Trusted) {
          if (scope_index >= static_cast<std::uint32_t>(kNumScopes)) {
            EDEN_FAIL(invalid_program);
          }
        }
        StateBlock* block = blocks[scope_index];
        const std::uint16_t slot = operand_slot(instr.a);
        if (block == nullptr || slot >= block->arrays.size()) {
          EDEN_FAIL(bad_state_slot);
        }
        ArrayValue& arr = block->arrays[slot];
        const std::int64_t value = tos;
        const std::int64_t index =
            spill[static_cast<std::ptrdiff_t>(sp) - 2];
        sp -= 2;
        tos = spill[static_cast<std::ptrdiff_t>(sp) - 1];
        if (index < 0 ||
            index >= static_cast<std::int64_t>(arr.data.size())) {
          EDEN_FAIL(out_of_bounds);
        }
        arr.data[static_cast<std::size_t>(index)] = value;
      }
      EDEN_NEXT();

      EDEN_CASE(array_len) {
        const auto scope_index =
            static_cast<std::uint32_t>((instr.a >> 16) & 0xff);
        if constexpr (!Trusted) {
          if (scope_index >= static_cast<std::uint32_t>(kNumScopes)) {
            EDEN_FAIL(invalid_program);
          }
        }
        StateBlock* block = blocks[scope_index];
        const std::uint16_t slot = operand_slot(instr.a);
        if (block == nullptr || slot >= block->arrays.size()) {
          EDEN_FAIL(bad_state_slot);
        }
        EDEN_PUSH(block->arrays[slot].element_count());
      }
      EDEN_NEXT();

      EDEN_CASE(add) {
        EDEN_BINOP(wrap_add(lhs, rhs));
      }
      EDEN_NEXT();

      EDEN_CASE(sub) {
        EDEN_BINOP(wrap_sub(lhs, rhs));
      }
      EDEN_NEXT();

      EDEN_CASE(mul) {
        EDEN_BINOP(wrap_mul(lhs, rhs));
      }
      EDEN_NEXT();

      EDEN_CASE(div_) {
        EDEN_NEED(2);
        const std::int64_t rhs = tos;
        const std::int64_t lhs = spill[static_cast<std::ptrdiff_t>(sp) - 2];
        if (rhs == 0) EDEN_FAIL(div_by_zero);
        tos = (rhs == -1) ? wrap_neg(lhs) : lhs / rhs;
        --sp;
      }
      EDEN_NEXT();

      EDEN_CASE(mod_) {
        EDEN_NEED(2);
        const std::int64_t rhs = tos;
        const std::int64_t lhs = spill[static_cast<std::ptrdiff_t>(sp) - 2];
        if (rhs == 0) EDEN_FAIL(div_by_zero);
        tos = (rhs == -1) ? 0 : lhs % rhs;
        --sp;
      }
      EDEN_NEXT();

      EDEN_CASE(neg) {
        EDEN_NEED(1);
        tos = wrap_neg(tos);
      }
      EDEN_NEXT();

      EDEN_CASE(cmp_eq) {
        EDEN_BINOP(lhs == rhs ? 1 : 0);
      }
      EDEN_NEXT();

      EDEN_CASE(cmp_ne) {
        EDEN_BINOP(lhs != rhs ? 1 : 0);
      }
      EDEN_NEXT();

      EDEN_CASE(cmp_lt) {
        EDEN_BINOP(lhs < rhs ? 1 : 0);
      }
      EDEN_NEXT();

      EDEN_CASE(cmp_le) {
        EDEN_BINOP(lhs <= rhs ? 1 : 0);
      }
      EDEN_NEXT();

      EDEN_CASE(cmp_gt) {
        EDEN_BINOP(lhs > rhs ? 1 : 0);
      }
      EDEN_NEXT();

      EDEN_CASE(cmp_ge) {
        EDEN_BINOP(lhs >= rhs ? 1 : 0);
      }
      EDEN_NEXT();

      EDEN_CASE(logical_not) {
        EDEN_NEED(1);
        tos = tos == 0 ? 1 : 0;
      }
      EDEN_NEXT();

      EDEN_CASE(jmp) {
        pc = static_cast<std::uint32_t>(instr.a);
      }
      EDEN_NEXT();

      EDEN_CASE(jz) {
        EDEN_NEED(1);
        const std::int64_t v = tos;
        EDEN_DROP();
        if (v == 0) pc = static_cast<std::uint32_t>(instr.a);
      }
      EDEN_NEXT();

      EDEN_CASE(jnz) {
        EDEN_NEED(1);
        const std::int64_t v = tos;
        EDEN_DROP();
        if (v != 0) pc = static_cast<std::uint32_t>(instr.a);
      }
      EDEN_NEXT();

      EDEN_CASE(call) {
        const auto findex = static_cast<std::size_t>(instr.a);
        if constexpr (!Trusted) {
          if (findex >= program.functions.size()) {
            EDEN_FAIL(invalid_program);
          }
        }
        const FunctionInfo& fn = program.functions[findex];
        if constexpr (!Trusted) {
          // A deserialized program may lie about its frame layout; args
          // beyond nlocals would smash the next frame's slots.
          if (fn.nargs > fn.nlocals) EDEN_FAIL(invalid_program);
        }
        EDEN_NEED(fn.nargs);
        if (frames_.size() >= limits_.max_call_depth) {
          EDEN_FAIL(call_depth_exceeded);
        }
        const std::uint32_t fbase = locals_size;
        const std::uint32_t new_size = fbase + fn.nlocals;
        if (new_size > limits_.max_locals) EDEN_FAIL(local_overflow);
        spill[static_cast<std::ptrdiff_t>(sp) - 1] = tos;  // flush cache
        for (std::uint32_t i = 0; i < fn.nlocals; ++i) locals[fbase + i] = 0;
        sp -= fn.nargs;
        for (std::uint32_t i = 0; i < fn.nargs; ++i) {
          locals[fbase + i] = spill[sp + i];
        }
        tos = spill[static_cast<std::ptrdiff_t>(sp) - 1];
        frames_.push_back(Frame{pc, fbase, locals_size});
        base = fbase;
        locals_size = new_size;
        if (locals_size > result.max_locals) result.max_locals = locals_size;
        if (frames_.size() > result.max_depth) {
          result.max_depth = static_cast<std::uint32_t>(frames_.size());
        }
        pc = fn.addr;
      }
      EDEN_NEXT();

      EDEN_CASE(ret) {
        EDEN_NEED(1);
        if (frames_.empty()) EDEN_FAIL(invalid_program);
        const Frame frame = frames_.back();
        frames_.pop_back();
        locals_size = frame.caller_locals_size;
        base = frames_.empty() ? 0 : frames_.back().locals_base;
        pc = frame.return_pc;
        // Return value stays cached in tos.
      }
      EDEN_NEXT();

      EDEN_CASE(rand_below) {
        EDEN_NEED(1);
        if (tos <= 0) EDEN_FAIL(bad_rand_bound);
        tos = static_cast<std::int64_t>(
            rng_.below(static_cast<std::uint64_t>(tos)));
      }
      EDEN_NEXT();

      EDEN_CASE(clock_ns) {
        EDEN_PUSH(clock_fn_ != nullptr ? clock_fn_(clock_ctx_)
                                       : default_clock(nullptr));
      }
      EDEN_NEXT();

      EDEN_CASE(min2) {
        EDEN_BINOP(lhs < rhs ? lhs : rhs);
      }
      EDEN_NEXT();

      EDEN_CASE(max2) {
        EDEN_BINOP(lhs > rhs ? lhs : rhs);
      }
      EDEN_NEXT();

      EDEN_CASE(abs1) {
        EDEN_NEED(1);
        if (tos < 0) tos = wrap_neg(tos);
      }
      EDEN_NEXT();

      EDEN_CASE(halt) {
        result.value = sp > 0 ? tos : 0;
        result.status = ExecStatus::ok;
        goto exec_done;
      }
      EDEN_NEXT();

      // ---- Fused superinstructions (optimizer output) ----

      EDEN_CASE(add_imm) {
        EDEN_NEED(1);
        tos = wrap_add(tos, instr.imm);
      }
      EDEN_NEXT();

      EDEN_CASE(mul_imm) {
        EDEN_NEED(1);
        tos = wrap_mul(tos, instr.imm);
      }
      EDEN_NEXT();

      EDEN_CASE(tee_local) {
        EDEN_NEED(1);
        const std::uint32_t slot = base + static_cast<std::uint32_t>(instr.a);
        if (slot >= locals_size) EDEN_FAIL(invalid_program);
        locals[slot] = tos;
      }
      EDEN_NEXT();

      EDEN_CASE(load_local2) {
        const std::uint32_t first =
            base + static_cast<std::uint32_t>(instr.a);
        if (first >= locals_size) EDEN_FAIL(invalid_program);
        EDEN_PUSH(locals[first]);
        const std::uint32_t second =
            base + static_cast<std::uint32_t>(
                       static_cast<std::int32_t>(instr.imm));
        if (second >= locals_size) EDEN_FAIL(invalid_program);
        EDEN_PUSH(locals[second]);
      }
      EDEN_NEXT();

      EDEN_CASE(load_state_push) {
        const auto scope_index =
            static_cast<std::uint32_t>((instr.a >> 16) & 0xff);
        if constexpr (!Trusted) {
          if (scope_index >= static_cast<std::uint32_t>(kNumScopes)) {
            EDEN_FAIL(invalid_program);
          }
        }
        StateBlock* block = blocks[scope_index];
        const std::uint16_t slot = operand_slot(instr.a);
        if (block == nullptr || slot >= block->scalars.size()) {
          EDEN_FAIL(bad_state_slot);
        }
        EDEN_PUSH(block->scalars[slot]);
        EDEN_PUSH(instr.imm);
      }
      EDEN_NEXT();

#define EDEN_CMP_IMM(name, cmpop)                  \
  EDEN_CASE(name) {                                \
    EDEN_NEED(1);                                  \
    tos = (tos cmpop instr.imm) ? 1 : 0;           \
  }                                                \
  EDEN_NEXT();

      EDEN_CMP_IMM(cmp_eq_imm, ==)
      EDEN_CMP_IMM(cmp_ne_imm, !=)
      EDEN_CMP_IMM(cmp_lt_imm, <)
      EDEN_CMP_IMM(cmp_le_imm, <=)
      EDEN_CMP_IMM(cmp_gt_imm, >)
      EDEN_CMP_IMM(cmp_ge_imm, >=)
#undef EDEN_CMP_IMM

// cmp; jz — pops both operands, branches when the comparison is false.
#define EDEN_CMP_JZ(name, cmpop)                                         \
  EDEN_CASE(name) {                                                      \
    EDEN_NEED(2);                                                        \
    const std::int64_t rhs = tos;                                        \
    const std::int64_t lhs = spill[static_cast<std::ptrdiff_t>(sp) - 2]; \
    sp -= 2;                                                             \
    tos = spill[static_cast<std::ptrdiff_t>(sp) - 1];                    \
    if (!(lhs cmpop rhs)) pc = static_cast<std::uint32_t>(instr.a);      \
  }                                                                      \
  EDEN_NEXT();

      EDEN_CMP_JZ(cmp_eq_jz, ==)
      EDEN_CMP_JZ(cmp_ne_jz, !=)
      EDEN_CMP_JZ(cmp_lt_jz, <)
      EDEN_CMP_JZ(cmp_le_jz, <=)
      EDEN_CMP_JZ(cmp_gt_jz, >)
      EDEN_CMP_JZ(cmp_ge_jz, >=)
#undef EDEN_CMP_JZ

// push imm; cmp; jz — pops one operand, compares against the
// immediate, branches when false.
#define EDEN_CMP_IMM_JZ(name, cmpop)                                 \
  EDEN_CASE(name) {                                                  \
    EDEN_NEED(1);                                                    \
    const std::int64_t v = tos;                                      \
    EDEN_DROP();                                                     \
    if (!(v cmpop instr.imm)) pc = static_cast<std::uint32_t>(instr.a); \
  }                                                                  \
  EDEN_NEXT();

      EDEN_CMP_IMM_JZ(cmp_eq_imm_jz, ==)
      EDEN_CMP_IMM_JZ(cmp_ne_imm_jz, !=)
      EDEN_CMP_IMM_JZ(cmp_lt_imm_jz, <)
      EDEN_CMP_IMM_JZ(cmp_le_imm_jz, <=)
      EDEN_CMP_IMM_JZ(cmp_gt_imm_jz, >)
      EDEN_CMP_IMM_JZ(cmp_ge_imm_jz, >=)
#undef EDEN_CMP_IMM_JZ

      EDEN_CASE(push_jmp) {
        EDEN_PUSH(instr.imm);
        pc = static_cast<std::uint32_t>(instr.a);
      }
      EDEN_NEXT();

      EDEN_CASE(inc_local) {
        // load_local a; add_imm k; store_local a — the slot check covers
        // both ends of the source pair; the stack is never touched.
        const std::uint32_t slot = base + static_cast<std::uint32_t>(instr.a);
        if (slot >= locals_size) EDEN_FAIL(invalid_program);
        locals[slot] = wrap_add(locals[slot], instr.imm);
      }
      EDEN_NEXT();

      EDEN_CASE(store_local2) {
        EDEN_NEED(1);
        const std::uint32_t first =
            base + static_cast<std::uint32_t>(instr.a);
        if (first >= locals_size) EDEN_FAIL(invalid_program);
        locals[first] = tos;
        EDEN_DROP();
        EDEN_NEED(1);
        const std::uint32_t second =
            base + static_cast<std::uint32_t>(
                       static_cast<std::int32_t>(instr.imm));
        if (second >= locals_size) EDEN_FAIL(invalid_program);
        locals[second] = tos;
        EDEN_DROP();
      }
      EDEN_NEXT();

// Record-array loads with the index arithmetic folded in: the index on
// top of the stack is transformed exactly as the replaced add/mul
// sequence would (same wrapping), then bounds-checked as array_load.
#define EDEN_ARRAY_LOAD_IDX(name, idx_expr)                               \
  EDEN_CASE(name) {                                                      \
    EDEN_NEED(1);                                                        \
    const auto scope_index =                                             \
        static_cast<std::uint32_t>((instr.a >> 16) & 0xff);              \
    if constexpr (!Trusted) {                                            \
      if (scope_index >= static_cast<std::uint32_t>(kNumScopes)) {       \
        EDEN_FAIL(invalid_program);                                      \
      }                                                                  \
    }                                                                    \
    StateBlock* block = blocks[scope_index];                             \
    const std::uint16_t slot = operand_slot(instr.a);                    \
    if (block == nullptr || slot >= block->arrays.size()) {              \
      EDEN_FAIL(bad_state_slot);                                         \
    }                                                                    \
    const ArrayValue& arr = block->arrays[slot];                         \
    const std::int64_t idx = (idx_expr);                                 \
    if (idx < 0 || idx >= static_cast<std::int64_t>(arr.data.size())) {  \
      EDEN_FAIL(out_of_bounds);                                          \
    }                                                                    \
    tos = arr.data[static_cast<std::size_t>(idx)];                       \
  }                                                                      \
  EDEN_NEXT();

      EDEN_ARRAY_LOAD_IDX(array_load_off, wrap_add(tos, instr.imm))
      EDEN_ARRAY_LOAD_IDX(array_load_mul, wrap_mul(tos, instr.imm))
      EDEN_ARRAY_LOAD_IDX(
          array_load_rec,
          wrap_add(wrap_mul(tos, static_cast<std::int64_t>(
                                     static_cast<std::uint64_t>(instr.imm) >>
                                     32)),
                   static_cast<std::int64_t>(
                       static_cast<std::uint64_t>(instr.imm) &
                       0xffffffffull)))
#undef EDEN_ARRAY_LOAD_IDX

exec_done:
  if constexpr (Profiled) {
    profile_countdown_ = prof_countdown;
  }
  result.steps = steps;
  result.max_stack = max_stack;
  return result;

#undef EDEN_CASE
#undef EDEN_NEXT
#undef EDEN_FETCH
#undef EDEN_BINOP
#undef EDEN_DROP
#undef EDEN_PUSH
#undef EDEN_NEED
#undef EDEN_FAIL
}

template ExecResult Interpreter::execute_impl<false, false>(
    const CompiledProgram&, StateBlock*, StateBlock*, StateBlock*);
template ExecResult Interpreter::execute_impl<true, false>(
    const CompiledProgram&, StateBlock*, StateBlock*, StateBlock*);
template ExecResult Interpreter::execute_impl<false, true>(
    const CompiledProgram&, StateBlock*, StateBlock*, StateBlock*);
template ExecResult Interpreter::execute_impl<true, true>(
    const CompiledProgram&, StateBlock*, StateBlock*, StateBlock*);

}  // namespace eden::lang
