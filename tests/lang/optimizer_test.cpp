// Differential testing of the bytecode optimizer: an optimized program
// must produce the same ExecStatus, result value and state writes as
// the O0 translation and as the reference AST evaluator, on every
// program and input — including trap cases. The only allowed divergence
// is resource consumption: O1 may use fewer steps and less stack, never
// more (see lang/optimizer.h).
#include "lang/optimizer.h"

#include <gtest/gtest.h>

#include "core/enclave_schema.h"
#include "functions/registry.h"
#include "lang/ast_eval.h"
#include "lang/compiler.h"
#include "lang/disasm.h"
#include "lang/parser.h"
#include "tests/lang/test_schemas.h"

namespace eden::lang {
namespace {

struct LevelResult {
  ExecResult result;
  StateBlock pkt, msg, glb;
};

LevelResult run_level(const CompiledProgram& program, const StateSchema&,
                      StateBlock pkt, StateBlock msg, StateBlock glb,
                      const ExecLimits& limits, std::uint64_t seed) {
  Interpreter interp(limits, seed);
  LevelResult out{ExecResult{}, std::move(pkt), std::move(msg),
                  std::move(glb)};
  out.result = interp.execute(program, &out.pkt, &out.msg, &out.glb);
  return out;
}

// Compiles at O0, optimizes to O1, runs both against identical state and
// checks full agreement on status, value and post-state. Returns the two
// ExecResults so callers can assert on resource accounting.
struct DiffPair {
  ExecResult o0, o1;
  OptStats stats;
};

DiffPair run_diff(std::string_view source, const StateSchema& schema,
                  const StateBlock& pkt, const StateBlock& msg,
                  const StateBlock& glb, const ExecLimits& limits = {},
                  std::uint64_t seed = 7) {
  const Program ast = parse(source);
  const CompiledProgram o0 = compile(ast, schema);
  OptStats stats;
  const CompiledProgram o1 = optimize(o0, OptLevel::O1, &stats);

  const LevelResult r0 = run_level(o0, schema, pkt, msg, glb, limits, seed);
  const LevelResult r1 = run_level(o1, schema, pkt, msg, glb, limits, seed);

  EXPECT_EQ(r0.result.status, r1.result.status) << source;
  if (r0.result.status == r1.result.status) {
    EXPECT_EQ(r0.result.value, r1.result.value) << source;
    EXPECT_EQ(r0.pkt.scalars, r1.pkt.scalars) << source;
    EXPECT_EQ(r0.msg.scalars, r1.msg.scalars) << source;
    EXPECT_EQ(r0.glb.scalars, r1.glb.scalars) << source;
    for (std::size_t i = 0; i < r0.glb.arrays.size(); ++i) {
      EXPECT_EQ(r0.glb.arrays[i].data, r1.glb.arrays[i].data) << source;
    }
  }
  // Resource relaxation is one-way: O1 never costs more than O0.
  EXPECT_LE(r1.result.steps, r0.result.steps) << source;
  EXPECT_LE(r1.result.max_stack, r0.result.max_stack) << source;
  return DiffPair{r0.result, r1.result, stats};
}

DiffPair run_diff_empty(std::string_view source, const ExecLimits& limits = {},
                        std::uint64_t seed = 7) {
  StateSchema schema;
  return run_diff(source, schema, StateBlock{}, StateBlock{}, StateBlock{},
                  limits, seed);
}

TEST(OptimizerDiff, PureExpressionCorpus) {
  const char* corpus[] = {
      "fun(p) -> 0",
      "fun(p) -> 1 + 2 * 3 - 4 / 2 % 3",
      "fun(p) -> (1 + 2) * (3 - 4)",
      "fun(p) -> -9223372036854775807 - 1",
      "fun(p) -> 9223372036854775807 + 1",  // wraps identically
      "fun(p) -> (0 - 9223372036854775807 - 1) / (0 - 1)",  // INT64_MIN / -1
      "fun(p) -> (0 - 9223372036854775807 - 1) % (0 - 1)",
      "fun(p) -> 1 < 2 && 3 >= 3 || not true",
      "fun(p) -> if 2 > 1 then 10 elif 1 > 2 then 20 else 30",
      "fun(p) -> let x = 5 in let y = x * x in y - x",
      "fun(p) -> let x = 1 in (x <- x + 1; x <- x * 10; x)",
      "fun(p) -> let i = 0 in let s = 0 in "
      "(while i < 25 do s <- s + i * i; i <- i + 1 done; s)",
      "fun(p) -> let f(a, b) = a * 10 + b in f(f(1, 2), 3)",
      "fun(p) -> let rec fib(n) = if n < 2 then n else fib(n-1) + fib(n-2) "
      "in fib(12)",
      "fun(p) -> let rec gcd(a, b) = if b = 0 then a else gcd(b, a % b) in "
      "gcd(252, 105)",
      "fun(p) -> let k = 3 in let addk(x) = x + k in addk(addk(addk(0)))",
      "fun(p) -> min(3, max(1, 2)) + abs(0 - 7)",
      "fun(p) -> (1; 2; 3; 4)",
      "fun(p) -> let u = (if false then 1) in u",
      "fun(p) -> true && 7",
      "fun(p) -> rand(10) + rand(10)",  // same seed -> same draws
  };
  for (const char* source : corpus) {
    SCOPED_TRACE(source);
    run_diff_empty(source);
  }
}

TEST(OptimizerDiff, StatefulCorpus) {
  const StateSchema schema = testing::pias_schema();
  auto pkt = StateBlock::from_schema(schema, Scope::packet);
  auto msg = StateBlock::from_schema(schema, Scope::message);
  auto glb = StateBlock::from_schema(schema, Scope::global);
  pkt.scalars[0] = 1460;  // size
  msg.scalars[0] = 9000;  // msg.size
  msg.scalars[1] = 1;     // msg.priority
  glb.arrays[0].stride = 2;
  glb.arrays[0].data = {10240, 7, 1048576, 5};

  const char* corpus[] = {
      testing::kPiasSource,
      "fun(p, m, g) -> m.size <- m.size + p.size; m.size",
      "fun(p, m, g) -> p.priority <- g.priorities[1].priority",
      "fun(p, m, g) -> len(g.priorities) + g.priorities.length",
      "fun(p, m, g) -> let t = g.priorities in t[0].limit + t[1].priority",
      "fun(p, m, g) -> if m.size > 8000 then (p.priority <- 5; 1) else 0",
      "fun(p, m, g) -> let i = 0 in (while i < len(g.priorities) do "
      "p.priority <- p.priority + g.priorities[i].limit; i <- i + 1 done; "
      "p.priority)",
  };
  for (const char* source : corpus) {
    SCOPED_TRACE(source);
    run_diff(source, schema, pkt, msg, glb);
  }
}

// Traps must survive optimization: same status at both levels.
TEST(OptimizerDiff, TrapCorpus) {
  struct Case {
    const char* source;
    ExecStatus expected;
  };
  const Case corpus[] = {
      {"fun(p) -> 1 / 0", ExecStatus::div_by_zero},
      {"fun(p) -> 5 % (3 - 3)", ExecStatus::div_by_zero},
      {"fun(p) -> let x = 0 in 7 / x", ExecStatus::div_by_zero},
      {"fun(p) -> rand(0)", ExecStatus::bad_rand_bound},
      {"fun(p) -> rand(0 - 5)", ExecStatus::bad_rand_bound},
      {"fun(p) -> let rec f(n) = 1 + f(n + 1) in f(0)",
       ExecStatus::call_depth_exceeded},
  };
  for (const Case& c : corpus) {
    SCOPED_TRACE(c.source);
    const DiffPair r = run_diff_empty(c.source);
    EXPECT_EQ(r.o0.status, c.expected);
    EXPECT_EQ(r.o1.status, c.expected);
  }
}

TEST(OptimizerDiff, ArrayBoundsTrapsSurvive) {
  const StateSchema schema = testing::pias_schema();
  auto pkt = StateBlock::from_schema(schema, Scope::packet);
  auto msg = StateBlock::from_schema(schema, Scope::message);
  auto glb = StateBlock::from_schema(schema, Scope::global);
  glb.arrays[0].stride = 2;
  glb.arrays[0].data = {10240, 7};

  const DiffPair over = run_diff("fun(p, m, g) -> g.priorities[5].limit",
                                 schema, pkt, msg, glb);
  EXPECT_EQ(over.o1.status, ExecStatus::out_of_bounds);
  const DiffPair neg = run_diff("fun(p, m, g) -> g.priorities[0 - 1].limit",
                                schema, pkt, msg, glb);
  EXPECT_EQ(neg.o1.status, ExecStatus::out_of_bounds);
}

TEST(OptimizerDiff, FuelExhaustionTrapsAtBothLevels) {
  ExecLimits limits;
  limits.max_steps = 10000;
  const DiffPair r = run_diff_empty("fun(p) -> while true do 0 done", limits);
  EXPECT_EQ(r.o0.status, ExecStatus::fuel_exhausted);
  EXPECT_EQ(r.o1.status, ExecStatus::fuel_exhausted);
  // Weighted step accounting: both levels bill the full budget.
  EXPECT_EQ(r.o0.steps, 10000u);
  EXPECT_EQ(r.o1.steps, 10000u);
}

// A program touching a scope whose block is null fails identically.
TEST(OptimizerDiff, NullBlockTrapsSurvive) {
  const StateSchema schema = testing::pias_schema();
  const CompiledProgram o0 =
      compile_source("fun(p, m, g) -> m.size <- m.size + 1", schema);
  const CompiledProgram o1 = optimize(o0, OptLevel::O1);
  auto pkt = StateBlock::from_schema(schema, Scope::packet);
  Interpreter interp;
  StateBlock p0 = pkt, p1 = pkt;
  const ExecResult r0 = interp.execute(o0, &p0, nullptr, nullptr);
  const ExecResult r1 = interp.execute(o1, &p1, nullptr, nullptr);
  EXPECT_EQ(r0.status, ExecStatus::bad_state_slot);
  EXPECT_EQ(r1.status, ExecStatus::bad_state_slot);
}

// O1 output must also agree with the reference AST evaluator — closing
// the loop parser -> compiler -> optimizer -> interpreter.
TEST(OptimizerDiff, OptimizedAgreesWithAstEval) {
  for (const auto& fn : functions::all_functions()) {
    SCOPED_TRACE(fn->name());
    const StateSchema schema = core::make_enclave_schema(fn->global_fields());
    auto pkt = StateBlock::from_schema(schema, Scope::packet);
    auto msg = StateBlock::from_schema(schema, Scope::message);
    auto glb = StateBlock::from_schema(schema, Scope::global);
    util::Rng vary(1234);
    pkt.scalars[core::PacketSlot::size] = vary.range(54, 1514);
    pkt.scalars[core::PacketSlot::dst] = vary.range(0, 3);
    pkt.scalars[core::PacketSlot::dst_port] = vary.range(1000, 1005);
    msg.scalars[core::MessageSlot::size] = vary.range(0, 2000000);
    msg.scalars[core::MessageSlot::priority] = vary.range(0, 2);
    for (auto& arr : glb.arrays) {
      for (int r = 0; r < 3 * arr.stride; ++r) {
        arr.data.push_back(vary.range(0, 1000));
      }
    }

    const Program ast = parse(fn->source());
    const CompiledProgram o1 =
        optimize(compile(ast, schema), OptLevel::O1);

    StateBlock bc_pkt = pkt, bc_msg = msg, bc_glb = glb;
    Interpreter interp(ExecLimits{}, /*seed=*/99);
    const ExecResult bc =
        interp.execute(o1, &bc_pkt, &bc_msg, &bc_glb);

    util::Rng rng(99);
    const ExecResult ref = ast_eval(ast, schema, &pkt, &msg, &glb, rng);

    EXPECT_EQ(bc.status, ref.status);
    if (bc.status == ExecStatus::ok) {
      EXPECT_EQ(bc.value, ref.value);
      EXPECT_EQ(bc_pkt.scalars, pkt.scalars);
      EXPECT_EQ(bc_msg.scalars, msg.scalars);
      EXPECT_EQ(bc_glb.scalars, glb.scalars);
    }
  }
}

// --- Structural checks on the individual passes -------------------------

TEST(Optimizer, FoldsConstantExpressions) {
  StateSchema schema;
  OptStats stats;
  const CompiledProgram o1 = optimize(
      compile_source("fun(p) -> 1 + 2 * 3 - 4", schema), OptLevel::O1,
      &stats);
  EXPECT_GT(stats.constants_folded, 0u);
  // The whole expression reduces to push 3; halt.
  ASSERT_EQ(o1.code.size(), 2u);
  EXPECT_EQ(o1.code[0].op, Op::push);
  EXPECT_EQ(o1.code[0].imm, 3);
  EXPECT_EQ(o1.code[1].op, Op::halt);
}

TEST(Optimizer, DivByZeroIsNeverFolded) {
  StateSchema schema;
  const CompiledProgram o1 =
      optimize(compile_source("fun(p) -> 1 / 0", schema), OptLevel::O1);
  Interpreter interp;
  EXPECT_EQ(interp.execute(o1, nullptr, nullptr, nullptr).status,
            ExecStatus::div_by_zero);
}

TEST(Optimizer, FusesComparisonBranches) {
  const StateSchema schema = testing::pias_schema();
  OptStats stats;
  const CompiledProgram o1 = optimize(
      compile_source("fun(p, m, g) -> if p.size < 100 then 1 else 2",
                     schema),
      OptLevel::O1, &stats);
  EXPECT_GT(stats.fused, 0u);
  bool has_fused = false;
  for (const Instr& i : o1.code) has_fused |= is_fused_op(i.op);
  EXPECT_TRUE(has_fused);
}

TEST(Optimizer, FusedStepCostMatchesReplacedInstructions) {
  // Hand-built so only fusion applies: load_state; push 5; add; halt
  // becomes load_state; add_imm 5; halt — and must bill identically.
  const StateSchema schema = testing::pias_schema();
  CompiledProgram p;
  p.code = {
      {Op::load_state, state_operand(Scope::packet, 0), 0},
      {Op::push, 0, 5},
      {Op::add, 0, 0},
      {Op::halt, 0, 0},
  };
  p.functions.push_back({"main", 0, 0, 0});
  p.usage.scalar_read[static_cast<int>(Scope::packet)] = 1;

  OptStats stats;
  const CompiledProgram o1 = optimize(p, OptLevel::O1, &stats);
  ASSERT_EQ(o1.code.size(), 3u);
  EXPECT_EQ(o1.code[1].op, Op::add_imm);
  EXPECT_EQ(stats.fused, 1u);

  auto pkt = StateBlock::from_schema(schema, Scope::packet);
  pkt.scalars[0] = 37;
  Interpreter interp;
  StateBlock pkt0 = pkt, pkt1 = pkt;
  const ExecResult r0 = interp.execute(p, &pkt0, nullptr, nullptr);
  const ExecResult r1 = interp.execute(o1, &pkt1, nullptr, nullptr);
  EXPECT_EQ(r0.value, 42);
  EXPECT_EQ(r1.value, 42);
  // add_imm costs 2: total steps identical though one dispatch fewer ran.
  EXPECT_EQ(r0.steps, 4u);
  EXPECT_EQ(r1.steps, 4u);
  EXPECT_EQ(op_step_cost(Op::add_imm), 2u);
}

TEST(Optimizer, WeightedStepsStableAcrossOptLevels) {
  // Superinstructions charge the cost of the base ops they replace
  // (kOpStepCost), so the steps metric is comparable across
  // optimization levels: the same program charges the same steps at
  // -O0 and -O1 even though -O1 executes fewer instructions.
  const StateSchema schema = testing::pias_schema();
  auto pkt = StateBlock::from_schema(schema, Scope::packet);
  auto msg = StateBlock::from_schema(schema, Scope::message);
  pkt.scalars[0] = 1460;  // size
  msg.scalars[0] = 9000;  // msg.size
  const DiffPair r = run_diff(
      "fun(p, m, g) -> m.size <- m.size + p.size; "
      "p.priority <- m.size / 1000",
      schema, pkt, msg, StateBlock::from_schema(schema, Scope::global));
  EXPECT_GT(r.stats.fused, 0u);
  EXPECT_GT(r.o0.steps, 0u);
  EXPECT_EQ(r.o0.steps, r.o1.steps);
}

TEST(Optimizer, ThreadsJumpChains) {
  CompiledProgram p;
  p.code = {
      {Op::jmp, 2, 0},   // 0: -> 2
      {Op::halt, 0, 0},  // 1: dead
      {Op::jmp, 4, 0},   // 2: -> 4
      {Op::halt, 0, 0},  // 3: dead
      {Op::push, 0, 7},  // 4:
      {Op::halt, 0, 0},  // 5:
  };
  p.functions.push_back({"main", 0, 0, 0});
  OptStats stats;
  const CompiledProgram o1 = optimize(p, OptLevel::O1, &stats);
  EXPECT_GT(stats.jumps_threaded, 0u);
  Interpreter interp;
  const ExecResult r = interp.execute(o1, nullptr, nullptr, nullptr);
  EXPECT_EQ(r.value, 7);
}

TEST(Optimizer, EliminatesDeadPushPop) {
  CompiledProgram p;
  p.code = {
      {Op::push, 0, 42},
      {Op::pop, 0, 0},
      {Op::push, 0, 9},
      {Op::halt, 0, 0},
  };
  p.functions.push_back({"main", 0, 0, 0});
  OptStats stats;
  const CompiledProgram o1 = optimize(p, OptLevel::O1, &stats);
  EXPECT_GT(stats.dead_eliminated, 0u);
  ASSERT_EQ(o1.code.size(), 2u);
  Interpreter interp;
  EXPECT_EQ(interp.execute(o1, nullptr, nullptr, nullptr).value, 9);
}

TEST(Optimizer, O0IsIdentity) {
  StateSchema schema;
  const CompiledProgram o0 =
      compile_source("fun(p) -> 1 + 2 * 3", schema);
  const CompiledProgram same = optimize(o0, OptLevel::O0);
  ASSERT_EQ(same.code.size(), o0.code.size());
  for (std::size_t i = 0; i < o0.code.size(); ++i) {
    EXPECT_EQ(same.code[i].op, o0.code[i].op);
    EXPECT_EQ(same.code[i].a, o0.code[i].a);
    EXPECT_EQ(same.code[i].imm, o0.code[i].imm);
  }
}

// A malformed program must come out of the optimizer no more malformed:
// the out-of-range jump still traps.
TEST(Optimizer, MalformedProgramStillTraps) {
  CompiledProgram p;
  p.code = {
      {Op::jmp, 99, 0},
      {Op::halt, 0, 0},
  };
  p.functions.push_back({"main", 0, 0, 0});
  const CompiledProgram o1 = optimize(p, OptLevel::O1);
  Interpreter interp;
  EXPECT_EQ(interp.execute(o1, nullptr, nullptr, nullptr).status,
            ExecStatus::invalid_program);
}

// --- Install-time verification ------------------------------------------

TEST(Verifier, AcceptsAndTrustsLibraryFunctions) {
  const ExecLimits limits;
  for (const auto& fn : functions::all_functions()) {
    SCOPED_TRACE(fn->name());
    const StateSchema schema = core::make_enclave_schema(fn->global_fields());
    CompiledProgram o1 =
        optimize(compile_source(fn->source(), schema), OptLevel::O1);
    ASSERT_NO_THROW(verify_program(o1, schema, limits));

    // Trusted dispatch must behave exactly like the untrusted path.
    auto pkt = StateBlock::from_schema(schema, Scope::packet);
    auto msg = StateBlock::from_schema(schema, Scope::message);
    auto glb = StateBlock::from_schema(schema, Scope::global);
    pkt.scalars[core::PacketSlot::size] = 1000;
    for (auto& arr : glb.arrays) {
      arr.data.assign(static_cast<std::size_t>(2) * arr.stride, 3);
    }

    StateBlock up = pkt, um = msg, ug = glb;
    Interpreter untrusted_interp(limits, 5);
    const ExecResult untrusted =
        untrusted_interp.execute(o1, &up, &um, &ug);

    o1.preverified = true;
    StateBlock tp = pkt, tm = msg, tg = glb;
    Interpreter trusted_interp(limits, 5);
    const ExecResult trusted = trusted_interp.execute(o1, &tp, &tm, &tg);

    EXPECT_EQ(trusted.status, untrusted.status);
    EXPECT_EQ(trusted.value, untrusted.value);
    EXPECT_EQ(trusted.steps, untrusted.steps);
    EXPECT_EQ(tp.scalars, up.scalars);
    EXPECT_EQ(tm.scalars, um.scalars);
    EXPECT_EQ(tg.scalars, ug.scalars);
  }
}

TEST(Verifier, RejectsStructurallyInvalidPrograms) {
  const StateSchema schema = testing::pias_schema();
  const ExecLimits limits;

  const auto rejects = [&](CompiledProgram p) {
    EXPECT_THROW(verify_program(p, schema, limits), LangError);
  };

  CompiledProgram base;
  base.code = {{Op::halt, 0, 0}};
  base.functions.push_back({"main", 0, 0, 0});
  ASSERT_NO_THROW(verify_program(base, schema, limits));

  {
    CompiledProgram p = base;  // branch target out of range
    p.code = {{Op::jmp, 5, 0}, {Op::halt, 0, 0}};
    rejects(std::move(p));
  }
  {
    CompiledProgram p = base;  // opcode byte beyond the table
    p.code = {{static_cast<Op>(kMaxOpByte + 1), 0, 0}, {Op::halt, 0, 0}};
    rejects(std::move(p));
  }
  {
    CompiledProgram p = base;  // state slot outside the schema
    p.code = {{Op::load_state, state_operand(Scope::packet, 99), 0},
              {Op::halt, 0, 0}};
    rejects(std::move(p));
  }
  {
    CompiledProgram p = base;  // call to missing function
    p.code = {{Op::call, 3, 0}, {Op::halt, 0, 0}};
    rejects(std::move(p));
  }
  {
    CompiledProgram p = base;  // nargs > nlocals would overrun the frame
    p.functions.push_back({"f", 0, 4, 2});
    rejects(std::move(p));
  }
  {
    CompiledProgram p = base;  // local slot beyond max_locals
    p.code = {{Op::load_local,
               static_cast<std::int32_t>(limits.max_locals), 0},
              {Op::halt, 0, 0}};
    rejects(std::move(p));
  }
  {
    CompiledProgram p = base;  // control can run off the end
    p.code = {{Op::push, 0, 1}};
    rejects(std::move(p));
  }
  {
    CompiledProgram p = base;  // empty program
    p.code.clear();
    rejects(std::move(p));
  }
  {
    CompiledProgram p = base;  // no functions
    p.functions.clear();
    rejects(std::move(p));
  }
}

// The declared concurrency mode and usage masks travel with the code,
// and the enclave takes its locks and message state from them, so the
// verifier checks them against what the code does. A serialized global
// counter relabelled `parallel` with its write masks cleared survives a
// serialize/deserialize round trip but not verification.
TEST(Verifier, DerivesModeAndMasksFromTheCode) {
  StateSchema schema = core::make_enclave_schema([] {
    FieldDef packets;
    packets.name = "packets";
    packets.access = Access::read_write;
    FieldDef limit;
    limit.name = "limit";
    return std::vector<FieldDef>{packets, limit};
  }());
  const ExecLimits limits;
  const CompiledProgram honest =
      compile_source("fun(p, m, g) -> g.packets <- g.packets + 1", schema);
  ASSERT_EQ(honest.concurrency, ConcurrencyMode::serialized);
  ASSERT_NO_THROW(verify_program(honest, schema, limits));

  const auto rejects = [&](const CompiledProgram& p, const char* what) {
    SCOPED_TRACE(what);
    const CompiledProgram wire =
        CompiledProgram::deserialize(p.serialize());
    EXPECT_THROW(verify_program(wire, schema, limits), LangError);
  };
  {
    CompiledProgram p = honest;
    p.concurrency = ConcurrencyMode::parallel;
    p.usage.scalar_write[static_cast<int>(Scope::global)] = 0;
    rejects(p, "relabelled parallel, write masks cleared");
  }
  {
    CompiledProgram p = honest;
    p.concurrency = ConcurrencyMode::per_message;
    rejects(p, "mode understated");
  }
  {
    CompiledProgram p = honest;
    p.usage.scalar_write[static_cast<int>(Scope::global)] = 0;
    rejects(p, "write mask cleared");
  }
  {
    CompiledProgram p = honest;
    p.usage.scalar_read[static_cast<int>(Scope::global)] = 0;
    rejects(p, "read mask cleared");
  }
  {
    // Message state read but not declared: the enclave would hand the
    // code no message block.
    CompiledProgram p = compile_source(
        "fun(p, m, g) -> m.size <- m.size + p.size", schema);
    ASSERT_EQ(p.concurrency, ConcurrencyMode::per_message);
    p.usage.scalar_read[static_cast<int>(Scope::message)] = 0;
    rejects(p, "message read undeclared");
    p = compile_source("fun(p, m, g) -> m.size <- m.size + p.size", schema);
    p.concurrency = ConcurrencyMode::parallel;
    rejects(p, "per-message writes relabelled parallel");
  }
  {
    // Stores to fields the schema marks read-only: a packet field and
    // a global, both declared in the masks.
    CompiledProgram p = honest;
    p.code = {{Op::push, 0, 1},
              {Op::store_state, state_operand(Scope::packet, 0), 0},
              {Op::halt, 0, 0}};
    p.usage = StateUsage{};
    p.usage.scalar_write[static_cast<int>(Scope::packet)] = 1;
    rejects(p, "store to packet.size");
    const auto limit = schema.find(Scope::global, "limit");
    ASSERT_TRUE(limit.has_value());
    p.code[1].a = state_operand(Scope::global, limit->slot);
    p.usage = StateUsage{};
    p.usage.scalar_write[static_cast<int>(Scope::global)] = std::uint64_t{1}
                                                            << limit->slot;
    rejects(p, "store to g.limit");
  }
  {
    // Declaring more than the code needs stays legal.
    CompiledProgram p =
        compile_source("fun(p, m, g) -> p.priority <- 3", schema);
    ASSERT_EQ(p.concurrency, ConcurrencyMode::parallel);
    p.usage.scalar_read[static_cast<int>(Scope::message)] = 0xff;
    p.usage.scalar_write[static_cast<int>(Scope::global)] = 1;
    p.concurrency = ConcurrencyMode::serialized;
    EXPECT_NO_THROW(verify_program(p, schema, limits));
  }
}

// --- Wire round-trip with fused opcodes ---------------------------------

TEST(OptimizerWire, FusedProgramRoundTrips) {
  const StateSchema schema = testing::pias_schema();
  const CompiledProgram o1 = optimize(
      compile_source(testing::kPiasSource, schema), OptLevel::O1);
  bool has_fused = false;
  for (const Instr& i : o1.code) has_fused |= is_fused_op(i.op);
  ASSERT_TRUE(has_fused);

  const std::vector<std::uint8_t> bytes = o1.serialize();
  // "EDBC" magic, then a little-endian u32 version: 2 for fused tier.
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes[4], 2);
  const CompiledProgram back = CompiledProgram::deserialize(bytes);

  // Disassembly (which covers every operand) must match exactly.
  EXPECT_EQ(disassemble(back), disassemble(o1));
  EXPECT_EQ(back.concurrency, o1.concurrency);

  // Trust is never serialized; the receiver must re-verify.
  CompiledProgram trusted = o1;
  verify_program(trusted, schema, ExecLimits{});
  trusted.preverified = true;
  const CompiledProgram retrip =
      CompiledProgram::deserialize(trusted.serialize());
  EXPECT_FALSE(retrip.preverified);

  // And the deserialized program still executes identically.
  auto pkt = StateBlock::from_schema(schema, Scope::packet);
  auto msg = StateBlock::from_schema(schema, Scope::message);
  auto glb = StateBlock::from_schema(schema, Scope::global);
  pkt.scalars[0] = 1460;
  glb.arrays[0].stride = 2;
  glb.arrays[0].data = {10240, 7, 1048576, 5};
  Interpreter interp;
  StateBlock ap = pkt, am = msg, ag = glb;
  StateBlock bp = pkt, bm = msg, bg = glb;
  const ExecResult ra = interp.execute(o1, &ap, &am, &ag);
  const ExecResult rb = interp.execute(back, &bp, &bm, &bg);
  EXPECT_EQ(ra.status, rb.status);
  EXPECT_EQ(ra.value, rb.value);
  EXPECT_EQ(ap.scalars, bp.scalars);
}

TEST(OptimizerWire, UnoptimizedProgramStaysVersion1) {
  StateSchema schema;
  const CompiledProgram o0 = compile_source("fun(p) -> 1 + 2", schema);
  const std::vector<std::uint8_t> bytes = o0.serialize();
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes[4], 1);
}

}  // namespace
}  // namespace eden::lang
