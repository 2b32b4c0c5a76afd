// Common shape of a network function in the library.
//
// Every function ships two equivalent data-plane implementations:
//  * `source`     — the EAL action function (what the controller compiles
//                   and ships as bytecode, the paper's "Eden" variant);
//  * `native`     — a hard-coded C++ twin operating on the same state
//                   blocks (the paper's "native" baseline, Section 5.1).
// plus the global-state schema both compile/run against and Table 1
// metadata for the taxonomy harness.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/enclave.h"

namespace eden::functions {

struct Table1Info {
  std::string category;      // e.g. "Load Balancing"
  std::string example;       // the paper's cited example system
  bool data_plane_state = false;
  bool data_plane_compute = false;
  bool app_semantics = false;
  bool network_support = false;  // beyond commodity priorities/labels
  bool eden_out_of_box = false;
};

class NetworkFunction {
 public:
  virtual ~NetworkFunction() = default;

  virtual const char* name() const = 0;
  virtual const char* source() const = 0;  // EAL action function
  virtual std::vector<lang::FieldDef> global_fields() const = 0;
  virtual core::NativeActionFn native() const = 0;
  virtual Table1Info table1() const = 0;

  // Compiles the EAL source against the enclave schema.
  lang::CompiledProgram compile() const;

  // Installs the interpreted (Eden) or native variant into an enclave.
  core::ActionId install(core::Enclave& enclave, bool use_native) const;
};

// Runs `writes` inside one enclave transaction, so a config helper's
// global writes land in a single publish and a live data path never
// runs the action half-configured. A write that throws aborts the
// transaction and the exception propagates.
void in_one_txn(core::Enclave& enclave, const std::function<void()>& writes);

}  // namespace eden::functions
