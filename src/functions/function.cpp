#include "functions/function.h"

#include "lang/compiler.h"

namespace eden::functions {

lang::CompiledProgram NetworkFunction::compile() const {
  const lang::StateSchema schema =
      core::make_enclave_schema(global_fields());
  return lang::compile_source(source(), schema, {}, name());
}

core::ActionId NetworkFunction::install(core::Enclave& enclave,
                                        bool use_native) const {
  if (use_native) {
    const lang::CompiledProgram program = compile();  // for mode/usage
    return enclave.install_native_action(
        std::string(name()) + ".native", native(), program.concurrency,
        program.usage.touches_scope(lang::Scope::message), global_fields());
  }
  return enclave.install_action(name(), compile(), global_fields());
}

void in_one_txn(core::Enclave& enclave, const std::function<void()>& writes) {
  enclave.begin_txn();
  try {
    writes();
  } catch (...) {
    enclave.abort_txn();
    throw;
  }
  enclave.commit_txn();
}

}  // namespace eden::functions
