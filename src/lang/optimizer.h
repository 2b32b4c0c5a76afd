// Bytecode optimizer and install-time verifier (the middle stage of the
// compile -> optimize -> install -> execute pipeline).
//
// The compiler (compiler.cpp) emits a direct, unsurprising translation
// of the AST; this pass tightens it for the per-packet hot path:
//
//   * constant folding      push a; push b; add  ->  push a+b
//   * dead code elimination push k; pop          ->  (nothing)
//   * jump threading        jmp -> jmp -> L      ->  jmp L
//   * superinstruction      cmp_lt; jz L         ->  cmp_lt_jz L
//     fusion                push k; add          ->  add_imm k
//                           load_local a; load_local b -> load_local2
//
// Optimization is semantics-preserving for valid programs: the same
// ExecStatus, result value and state writes at every level. The only
// permitted divergence is that O1 may consume *fewer* resources (steps,
// operand stack), so a program that dies exactly at a resource limit
// under O0 may complete under O1 — the same relaxation the paper's
// tail-call optimization already performs. ExecResult::steps stays
// comparable across levels because every fused op is billed for the
// number of base instructions it replaced (kOpStepCost).
//
// verify_program moves the per-run validation of the interpreter's
// untrusted path to install time: once a program passes against the
// schema and limits it will run under, the interpreter may skip pc
// bounds, opcode range, state-scope and function-table checks on every
// dispatch (CompiledProgram::preverified).
#pragma once

#include <cstdint>

#include "lang/bytecode.h"
#include "lang/interpreter.h"
#include "lang/state_schema.h"

namespace eden::lang {

// What the optimizer did, for tooling (`edenc -O1`) and tests.
struct OptStats {
  std::size_t instructions_before = 0;
  std::size_t instructions_after = 0;
  std::size_t constants_folded = 0;
  std::size_t dead_eliminated = 0;
  std::size_t jumps_threaded = 0;
  std::size_t fused = 0;
};

// Returns the optimized program. At OptLevel::O0 this is the input,
// untouched. Never throws; a malformed input program comes out no more
// malformed than it went in (invalid branch targets and opcodes are
// left alone and still trap at run time).
CompiledProgram optimize(CompiledProgram program, OptLevel level,
                         OptStats* stats = nullptr);

// Static verification that `program` is safe to execute against state
// blocks shaped by `schema` under `limits` without the interpreter's
// per-dispatch structural checks: opcodes in range, branch targets and
// function indices valid, state operands within the schema, local slots
// within the frame limit, nargs <= nlocals for every function, and the
// code cannot run off the end. It also derives the state the code reads
// and writes: the declared usage masks must cover it, the concurrency
// mode must cover the masks' writes (global => serialized, message =>
// per_message), and no store may target a field the schema marks
// read-only. Declaring more than the code needs is legal. Throws
// LangError with a diagnostic on
// the first violation. On success the caller may set
// program.preverified = true.
void verify_program(const CompiledProgram& program, const StateSchema& schema,
                    const ExecLimits& limits);

}  // namespace eden::lang
