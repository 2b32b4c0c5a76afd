// Compiler from EAL abstract syntax to enclave bytecode.
//
// Mirrors the paper's Section 3.4.4: the hard part of compilation is
// resolving the function's state dependencies against the annotated
// schema — which fields it reads and writes, in which scope — and
// deriving from the access annotations the concurrency mode under which
// the enclave may run it. The translation of the AST itself is
// straightforward; tail recursion is compiled to a loop as in the paper.
#pragma once

#include <string_view>

#include "lang/ast.h"
#include "lang/bytecode.h"
#include "lang/state_schema.h"

namespace eden::lang {

struct CompileOptions {
  // Compile self tail calls to jumps (the paper's optimization). Exposed
  // so the ablation benchmark can measure its effect.
  bool tail_call_optimization = true;
};

// Compiles a parsed program against a state schema. Throws LangError on
// any semantic error: unknown fields, writes to read-only state, unbound
// variables, arity mismatches, malformed array accesses. The result is
// the raw translation: lang::optimize lowers it, and the enclave's
// install path always does so at O1.
CompiledProgram compile(const Program& program, const StateSchema& schema,
                        const CompileOptions& options = {},
                        std::string source_name = {});

// Convenience: parse + compile in one step.
CompiledProgram compile_source(std::string_view source,
                               const StateSchema& schema,
                               const CompileOptions& options = {},
                               std::string source_name = {});

}  // namespace eden::lang
