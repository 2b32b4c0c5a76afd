// The Eden enclave interpreter (Section 3.4.3 / 4.1).
//
// A stack-based virtual machine that executes compiled action functions
// against packet / message / global state blocks. Safety properties the
// paper relies on are enforced here at run time: every array access is
// bounds checked, operand stack, locals and call depth are bounded, and a
// faulty program terminates with an error status without touching state
// outside its own blocks. The data path never throws — execution reports
// an ExecStatus instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "lang/bytecode.h"
#include "lang/state_schema.h"
#include "telemetry/profile.h"
#include "util/rng.h"

namespace eden::lang {

enum class ExecStatus : std::uint8_t {
  ok = 0,
  div_by_zero,
  out_of_bounds,        // array index outside the array
  bad_state_slot,       // program references a slot the state lacks
  stack_overflow,
  stack_underflow,
  local_overflow,
  call_depth_exceeded,
  fuel_exhausted,
  bad_rand_bound,       // rand(n) with n <= 0
  invalid_program,      // malformed bytecode (bad pc, bad function index)
};

// Number of ExecStatus values (for per-status breakdown tables).
inline constexpr std::size_t kNumExecStatus =
    static_cast<std::size_t>(ExecStatus::invalid_program) + 1;

std::string_view exec_status_name(ExecStatus status);

struct ExecLimits {
  std::uint32_t max_operand_stack = 256;  // entries (8 bytes each)
  std::uint32_t max_locals = 4096;
  std::uint32_t max_call_depth = 128;
  // 0 = unlimited. The paper deliberately does not cap the cycle budget
  // (Section 6); tests and cautious deployments can set one.
  std::uint64_t max_steps = 0;
};

struct ExecResult {
  ExecStatus status = ExecStatus::ok;
  std::int64_t value = 0;       // program result (top of stack at halt)
  std::uint64_t steps = 0;      // instructions executed
  std::uint32_t max_stack = 0;  // operand-stack high-water mark (entries)
  std::uint32_t max_locals = 0; // locals high-water mark (entries)
  std::uint32_t max_depth = 0;  // call-depth high-water mark

  bool ok() const { return status == ExecStatus::ok; }
};

// Clock source for the clock() builtin. The simulator injects virtual
// time; stand-alone use defaults to the process steady clock.
using ClockFn = std::int64_t (*)(void* ctx);

// One interpreter per thread of execution; scratch buffers are reused
// across runs so steady-state execution does not allocate.
class Interpreter {
 public:
  explicit Interpreter(ExecLimits limits = {}, std::uint64_t rng_seed = 1);

  void set_clock(ClockFn fn, void* ctx) {
    clock_fn_ = fn;
    clock_ctx_ = ctx;
  }
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

  // Opt-in hot-spot profiling: while `profile` is non-null, execution
  // switches to the profiled template instantiations (both dispatch
  // modes), which bump `profile->counts[pc]` on every fetch and
  // attribute sampled tick deltas to `profile->ticks[pc]` every
  // `cycle_sample_every` fetches (0 disables cycle sampling; counts are
  // always exact). The profile must outlive execution; the caller
  // serializes access if the same profile is shared across threads.
  void set_profile(telemetry::ProgramProfile* profile,
                   std::uint32_t cycle_sample_every = 64) {
    profile_ = profile;
    profile_cycle_every_ = cycle_sample_every;
    // Clamp rather than reset the running countdown: the enclave
    // re-attaches the profile on every batch, and a reset would starve
    // short programs of cycle samples forever.
    if (profile_countdown_ == 0 || profile_countdown_ > cycle_sample_every) {
      profile_countdown_ = cycle_sample_every;
    }
  }
  telemetry::ProgramProfile* profile() const { return profile_; }

  // Executes `program` against the given state blocks. Any of the blocks
  // may be null if the program does not touch that scope (checked via
  // program.usage); a program touching a null scope fails with
  // bad_state_slot.
  //
  // Dispatch is threaded (computed goto), with the top of the operand
  // stack cached in a register. If program.preverified is set
  // (install-time verify_program passed against this interpreter's
  // limits and the blocks' schema), the per-dispatch structural checks —
  // pc bounds, opcode range, state scope, function index — are skipped;
  // all data-dependent safety checks (array bounds, stack/locals/depth
  // limits, fuel, null state blocks) always stay on.
  ExecResult execute(const CompiledProgram& program, StateBlock* packet,
                     StateBlock* message, StateBlock* global);

  const ExecLimits& limits() const { return limits_; }

 private:
  template <bool Trusted, bool Profiled>
  ExecResult execute_impl(const CompiledProgram& program, StateBlock* packet,
                          StateBlock* message, StateBlock* global);

  ExecLimits limits_;
  util::Rng rng_;
  ClockFn clock_fn_ = nullptr;
  void* clock_ctx_ = nullptr;
  telemetry::ProgramProfile* profile_ = nullptr;
  std::uint32_t profile_cycle_every_ = 64;
  // Fetches left until the next cycle sample, carried across execute()
  // calls so programs shorter than the sampling period still accumulate
  // tick attributions over many runs.
  std::uint32_t profile_countdown_ = 64;

  // Reused scratch space.
  std::vector<std::int64_t> stack_;
  std::vector<std::int64_t> locals_;
  struct Frame {
    std::uint32_t return_pc;
    std::uint32_t locals_base;
    std::uint32_t caller_locals_size;
  };
  std::vector<Frame> frames_;
};

}  // namespace eden::lang
