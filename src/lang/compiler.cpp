#include "lang/compiler.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "lang/parser.h"

namespace eden::lang {

namespace {

// ---------------------------------------------------------------------
// Symbols

struct FuncDef;

struct Symbol {
  enum class Kind {
    int_local,   // frame slot holding an int64
    array_ref,   // compile-time alias of a state array field
    state_param, // packet / message / global parameter
    function,    // local function
  };
  Kind kind = Kind::int_local;
  int slot = 0;           // int_local: frame slot
  FieldSlot field;        // array_ref: aliased field
  std::string field_name; // array_ref: field name (for record offsets)
  Scope scope = Scope::packet;  // state_param
  FuncDef* func = nullptr;      // function
};

struct Capture {
  std::string name;  // resolved by name at each call site
};

struct FuncDef {
  std::string name;
  int table_index = 0;
  std::vector<std::string> explicit_params;
  std::vector<Capture> captures;  // int-valued captures become extra args
  // Names resolved at the definition site that are not value captures:
  // array aliases, state params and enclosing functions.
  std::map<std::string, Symbol, std::less<>> imports;
  const Expr* body = nullptr;
  bool is_recursive = false;
};

bool is_builtin(std::string_view name) {
  return name == "len" || name == "rand" || name == "clock" ||
         name == "min" || name == "max" || name == "abs";
}

// ---------------------------------------------------------------------
// Free-variable analysis (used to compute a nested function's captures).

void collect_free(const Expr* e, std::set<std::string>& bound,
                  std::vector<std::string>& order,
                  std::set<std::string>& seen) {
  if (e == nullptr) return;
  auto note = [&](const std::string& name) {
    if (bound.contains(name) || is_builtin(name)) return;
    if (seen.insert(name).second) order.push_back(name);
  };
  switch (e->kind) {
    case ExprKind::path_read:
      note(e->path.root);
      for (const auto& elem : e->path.elems) {
        collect_free(elem.index.get(), bound, order, seen);
      }
      return;
    case ExprKind::assign:
      note(e->path.root);
      for (const auto& elem : e->path.elems) {
        collect_free(elem.index.get(), bound, order, seen);
      }
      collect_free(e->children[0].get(), bound, order, seen);
      return;
    case ExprKind::let: {
      collect_free(e->children[0].get(), bound, order, seen);
      const bool was_bound = bound.contains(e->name);
      bound.insert(e->name);
      collect_free(e->children[1].get(), bound, order, seen);
      if (!was_bound) bound.erase(e->name);
      return;
    }
    case ExprKind::let_fun: {
      std::set<std::string> inner_bound = bound;
      if (e->is_recursive) inner_bound.insert(e->name);
      for (const auto& p : e->fun_params) inner_bound.insert(p.name);
      collect_free(e->children[0].get(), inner_bound, order, seen);
      const bool was_bound = bound.contains(e->name);
      bound.insert(e->name);
      collect_free(e->children[1].get(), bound, order, seen);
      if (!was_bound) bound.erase(e->name);
      return;
    }
    case ExprKind::call:
      note(e->name);
      for (const auto& child : e->children) {
        collect_free(child.get(), bound, order, seen);
      }
      return;
    default:
      for (const auto& child : e->children) {
        collect_free(child.get(), bound, order, seen);
      }
      return;
  }
}

// ---------------------------------------------------------------------
// Compiler

class Compiler {
 public:
  Compiler(const Program& program, const StateSchema& schema,
           const CompileOptions& options, std::string source_name)
      : program_(program), schema_(schema), options_(options) {
    out_.source_name = std::move(source_name);
  }

  CompiledProgram run() {
    bind_state_params();

    // Entry function.
    auto main_def = std::make_unique<FuncDef>();
    main_def->name = "main";
    main_def->table_index = 0;
    main_def->body = program_.body.get();
    out_.functions.push_back(FunctionInfo{"main", 0, 0, 0});
    defs_.push_back(std::move(main_def));

    // Compile main; nested definitions append to the queue.
    queue_.push_back(defs_.front().get());
    while (!queue_.empty()) {
      FuncDef* def = queue_.front();
      queue_.pop_front();
      compile_function(*def);
    }

    out_.concurrency = out_.usage.required_concurrency();
    return std::move(out_);
  }

 private:
  // --- Scoped symbol table (per function being compiled) ---------------

  struct ScopeEntry {
    std::string name;
    Symbol symbol;
  };

  struct FuncCtx {
    FuncDef* def = nullptr;
    std::vector<ScopeEntry> symbols;  // stack; lookup scans backwards
    int next_slot = 0;
    int max_slot = 0;
  };

  void push_symbol(std::string name, Symbol symbol) {
    ctx_.symbols.push_back(ScopeEntry{std::move(name), std::move(symbol)});
  }

  const Symbol* lookup(std::string_view name) const {
    for (auto it = ctx_.symbols.rbegin(); it != ctx_.symbols.rend(); ++it) {
      if (it->name == name) return &it->symbol;
    }
    const auto imp = ctx_.def->imports.find(name);
    if (imp != ctx_.def->imports.end()) return &imp->second;
    return nullptr;
  }

  int alloc_slot() {
    const int slot = ctx_.next_slot++;
    ctx_.max_slot = std::max(ctx_.max_slot, ctx_.next_slot);
    return slot;
  }

  // --- State parameter binding -----------------------------------------

  void bind_state_params() {
    if (program_.params.size() > kNumScopes) {
      throw LangError("action functions take at most 3 parameters "
                      "(packet, message, global)",
                      SourceLoc{});
    }
    for (std::size_t i = 0; i < program_.params.size(); ++i) {
      const Param& p = program_.params[i];
      Scope scope = static_cast<Scope>(i);  // positional default
      if (!p.type_name.empty()) {
        std::string t = p.type_name;
        std::transform(t.begin(), t.end(), t.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (t == "packet") {
          scope = Scope::packet;
        } else if (t == "message" || t == "msg") {
          scope = Scope::message;
        } else if (t == "global") {
          scope = Scope::global;
        } else {
          throw LangError("unknown parameter type '" + p.type_name +
                          "' (expected Packet, Message or Global)",
                          SourceLoc{});
        }
      }
      Symbol sym;
      sym.kind = Symbol::Kind::state_param;
      sym.scope = scope;
      state_params_.emplace_back(p.name, sym);
    }
  }

  // --- Emission helpers --------------------------------------------------

  int emit(Op op, std::int32_t a = 0, std::int64_t imm = 0) {
    out_.code.push_back(Instr{op, a, imm});
    return static_cast<int>(out_.code.size()) - 1;
  }

  void patch_target(int instr_index, int target) {
    out_.code[static_cast<std::size_t>(instr_index)].a = target;
  }

  int here() const { return static_cast<int>(out_.code.size()); }

  void note_scalar(Scope scope, std::uint16_t slot, bool write) {
    if (slot >= 64) {
      throw LangError("too many scalar state fields (max 64 per scope)",
                      SourceLoc{});
    }
    const int s = static_cast<int>(scope);
    (write ? out_.usage.scalar_write[s] : out_.usage.scalar_read[s]) |=
        std::uint64_t{1} << slot;
  }

  void note_array(Scope scope, std::uint16_t slot, bool write) {
    if (slot >= 64) {
      throw LangError("too many array state fields (max 64 per scope)",
                      SourceLoc{});
    }
    const int s = static_cast<int>(scope);
    (write ? out_.usage.array_write[s] : out_.usage.array_read[s]) |=
        std::uint64_t{1} << slot;
  }

  // --- Function compilation ----------------------------------------------

  void compile_function(FuncDef& def) {
    ctx_ = FuncCtx{};
    ctx_.def = &def;

    // Note: out_.functions may grow (and reallocate) while compiling the
    // body if it defines nested functions, so index rather than hold a
    // reference.
    const auto table_index = static_cast<std::size_t>(def.table_index);
    out_.functions[table_index].addr = static_cast<std::uint32_t>(here());

    if (def.table_index == 0) {
      // The entry function sees the state parameters directly.
      for (const auto& [name, sym] : state_params_) push_symbol(name, sym);
    } else {
      // Explicit parameters first, then value captures — this order must
      // match what call sites push.
      for (const auto& p : def.explicit_params) {
        Symbol sym;
        sym.kind = Symbol::Kind::int_local;
        sym.slot = alloc_slot();
        push_symbol(p, sym);
      }
      for (const auto& c : def.captures) {
        Symbol sym;
        sym.kind = Symbol::Kind::int_local;
        sym.slot = alloc_slot();
        push_symbol(c.name, sym);
      }
      if (def.is_recursive) {
        Symbol self;
        self.kind = Symbol::Kind::function;
        self.func = &def;
        push_symbol(def.name, self);
      }
    }

    compile_expr(def.body, /*want_value=*/true, /*tail=*/true);
    emit(def.table_index == 0 ? Op::halt : Op::ret);

    out_.functions[table_index].nargs = static_cast<std::uint16_t>(
        def.explicit_params.size() + def.captures.size());
    out_.functions[table_index].nlocals =
        static_cast<std::uint16_t>(ctx_.max_slot);
  }

  // --- Expression compilation ---------------------------------------------
  //
  // want_value: whether the expression must leave its value on the stack.
  // tail: whether the expression is in tail position of the current
  // function (enables self-tail-call elimination).

  void compile_expr(const Expr* e, bool want_value, bool tail) {
    assert(e != nullptr);
    switch (e->kind) {
      case ExprKind::int_literal:
      case ExprKind::bool_literal:
        if (want_value) emit(Op::push, 0, e->int_value);
        return;
      case ExprKind::path_read:
        compile_path_read(*e, want_value);
        return;
      case ExprKind::unary:
        compile_expr(e->children[0].get(), want_value, false);
        if (want_value) {
          emit(e->unary_op == UnaryOp::neg ? Op::neg : Op::logical_not);
        }
        return;
      case ExprKind::binary:
        compile_binary(*e, want_value);
        return;
      case ExprKind::assign:
        compile_assign(*e, want_value);
        return;
      case ExprKind::let:
        compile_let(*e, want_value, tail);
        return;
      case ExprKind::let_fun:
        compile_let_fun(*e, want_value, tail);
        return;
      case ExprKind::if_else:
        compile_if(*e, want_value, tail);
        return;
      case ExprKind::sequence:
        for (std::size_t i = 0; i + 1 < e->children.size(); ++i) {
          compile_expr(e->children[i].get(), false, false);
        }
        compile_expr(e->children.back().get(), want_value, tail);
        return;
      case ExprKind::call:
        compile_call(*e, want_value, tail);
        return;
      case ExprKind::while_loop:
        compile_while(*e, want_value);
        return;
    }
  }

  void compile_binary(const Expr& e, bool want_value) {
    const Expr* lhs = e.children[0].get();
    const Expr* rhs = e.children[1].get();

    // Short-circuit logic produces 0/1 without evaluating the right
    // operand when the left decides.
    if (e.binary_op == BinaryOp::logical_and ||
        e.binary_op == BinaryOp::logical_or) {
      const bool is_and = e.binary_op == BinaryOp::logical_and;
      compile_expr(lhs, true, false);
      const int jshort = emit(is_and ? Op::jz : Op::jnz);
      compile_expr(rhs, true, false);
      // Normalize the right operand to 0/1.
      emit(Op::push, 0, 0);
      emit(Op::cmp_ne);
      const int jend = emit(Op::jmp);
      patch_target(jshort, here());
      emit(Op::push, 0, is_and ? 0 : 1);
      patch_target(jend, here());
      if (!want_value) emit(Op::pop);
      return;
    }

    compile_expr(lhs, true, false);
    compile_expr(rhs, true, false);
    switch (e.binary_op) {
      case BinaryOp::add: emit(Op::add); break;
      case BinaryOp::sub: emit(Op::sub); break;
      case BinaryOp::mul: emit(Op::mul); break;
      case BinaryOp::div: emit(Op::div_); break;
      case BinaryOp::mod: emit(Op::mod_); break;
      case BinaryOp::eq: emit(Op::cmp_eq); break;
      case BinaryOp::ne: emit(Op::cmp_ne); break;
      case BinaryOp::lt: emit(Op::cmp_lt); break;
      case BinaryOp::le: emit(Op::cmp_le); break;
      case BinaryOp::gt: emit(Op::cmp_gt); break;
      case BinaryOp::ge: emit(Op::cmp_ge); break;
      case BinaryOp::logical_and:
      case BinaryOp::logical_or:
        assert(false);
        break;
    }
    if (!want_value) emit(Op::pop);
  }

  void compile_let(const Expr& e, bool want_value, bool tail) {
    const Expr* value = e.children[0].get();
    const Expr* body = e.children[1].get();

    // `let alias = global.some_array in ...` creates a compile-time
    // array alias rather than a runtime value.
    if (value->kind == ExprKind::path_read) {
      if (auto alias = try_array_alias(value->path)) {
        const std::size_t saved = ctx_.symbols.size();
        push_symbol(e.name, *alias);
        compile_expr(body, want_value, tail);
        ctx_.symbols.resize(saved);
        return;
      }
    }

    compile_expr(value, true, false);
    Symbol sym;
    sym.kind = Symbol::Kind::int_local;
    sym.slot = alloc_slot();
    emit(Op::store_local, sym.slot);
    const std::size_t saved = ctx_.symbols.size();
    push_symbol(e.name, sym);
    compile_expr(body, want_value, tail);
    ctx_.symbols.resize(saved);
  }

  // Returns an array_ref symbol if the path names a whole array field
  // (state array with no indexing), otherwise nullopt.
  std::optional<Symbol> try_array_alias(const Path& path) const {
    if (path.elems.size() != 1 || path.elems[0].field.empty()) {
      return std::nullopt;
    }
    const Symbol* root = lookup(path.root);
    if (root == nullptr || root->kind != Symbol::Kind::state_param) {
      return std::nullopt;
    }
    const auto slot = schema_.find(root->scope, path.elems[0].field);
    if (!slot || slot->kind == FieldKind::scalar) return std::nullopt;
    Symbol sym;
    sym.kind = Symbol::Kind::array_ref;
    sym.field = *slot;
    sym.field_name = path.elems[0].field;
    return sym;
  }

  void compile_let_fun(const Expr& e, bool want_value, bool tail) {
    auto def = std::make_unique<FuncDef>();
    def->name = e.name;
    def->table_index = static_cast<int>(out_.functions.size());
    def->is_recursive = e.is_recursive;
    for (const auto& p : e.fun_params) def->explicit_params.push_back(p.name);
    def->body = e.children[0].get();

    // Determine the free names of the function body and resolve each at
    // the definition site. Int locals become by-value captures (extra
    // call arguments); array aliases, state params and functions become
    // compile-time imports.
    std::set<std::string> bound;
    if (e.is_recursive) bound.insert(e.name);
    for (const auto& p : e.fun_params) bound.insert(p.name);
    std::vector<std::string> order;
    std::set<std::string> seen;
    collect_free(def->body, bound, order, seen);
    for (const auto& name : order) {
      const Symbol* sym = lookup(name);
      if (sym == nullptr) {
        throw LangError("unbound variable '" + name + "' in function '" +
                        e.name + "'",
                        e.loc);
      }
      switch (sym->kind) {
        case Symbol::Kind::int_local:
          def->captures.push_back(Capture{name});
          break;
        case Symbol::Kind::array_ref:
        case Symbol::Kind::state_param:
        case Symbol::Kind::function:
          def->imports.emplace(name, *sym);
          break;
      }
    }

    out_.functions.push_back(
        FunctionInfo{def->name, 0, 0, 0});  // patched when compiled
    queue_.push_back(def.get());

    Symbol sym;
    sym.kind = Symbol::Kind::function;
    sym.func = def.get();
    defs_.push_back(std::move(def));

    const std::size_t saved = ctx_.symbols.size();
    push_symbol(e.name, sym);
    compile_expr(e.children[1].get(), want_value, tail);
    ctx_.symbols.resize(saved);
  }

  void compile_if(const Expr& e, bool want_value, bool tail) {
    const Expr* cond = e.children[0].get();
    const Expr* then_branch = e.children[1].get();
    const Expr* else_branch = e.children[2].get();

    compile_expr(cond, true, false);
    const int jelse = emit(Op::jz);
    compile_expr(then_branch, want_value, tail);
    const int jend = emit(Op::jmp);
    patch_target(jelse, here());
    if (else_branch != nullptr) {
      compile_expr(else_branch, want_value, tail);
    } else if (want_value) {
      emit(Op::push, 0, 0);  // missing else evaluates to 0 (unit)
    }
    patch_target(jend, here());
  }

  void compile_while(const Expr& e, bool want_value) {
    const int loop_start = here();
    compile_expr(e.children[0].get(), true, false);
    const int jexit = emit(Op::jz);
    compile_expr(e.children[1].get(), false, false);
    emit(Op::jmp, loop_start);
    patch_target(jexit, here());
    if (want_value) emit(Op::push, 0, 0);
  }

  void compile_call(const Expr& e, bool want_value, bool tail) {
    if (is_builtin(e.name)) {
      compile_builtin(e, want_value);
      return;
    }
    const Symbol* sym = lookup(e.name);
    if (sym == nullptr || sym->kind != Symbol::Kind::function) {
      throw LangError("call to unknown function '" + e.name + "'", e.loc);
    }
    FuncDef& callee = *sym->func;
    if (e.children.size() != callee.explicit_params.size()) {
      throw LangError("function '" + e.name + "' expects " +
                          std::to_string(callee.explicit_params.size()) +
                          " argument(s), got " +
                          std::to_string(e.children.size()),
                      e.loc);
    }
    // Push explicit arguments, then captured values (resolved by name in
    // the calling scope).
    for (const auto& arg : e.children) {
      compile_expr(arg.get(), true, false);
    }
    for (const auto& cap : callee.captures) {
      const Symbol* cap_sym = lookup(cap.name);
      if (cap_sym == nullptr || cap_sym->kind != Symbol::Kind::int_local) {
        throw LangError("captured variable '" + cap.name +
                        "' is not visible at this call site",
                        e.loc);
      }
      emit(Op::load_local, cap_sym->slot);
    }

    const bool self_tail = tail && options_.tail_call_optimization &&
                           &callee == ctx_.def;
    if (self_tail) {
      // Tail recursion compiles to a loop: store the arguments back into
      // the parameter slots (in reverse, since they sit on the stack) and
      // jump to the function entry.
      const int nargs = static_cast<int>(callee.explicit_params.size() +
                                         callee.captures.size());
      for (int i = nargs - 1; i >= 0; --i) {
        emit(Op::store_local, i);
      }
      emit(Op::jmp,
           static_cast<std::int32_t>(
               out_.functions[static_cast<std::size_t>(callee.table_index)]
                   .addr));
      // The jump target is this function's own entry, which is already
      // final because we are inside its body.
      return;
    }

    emit(Op::call, callee.table_index);
    if (!want_value) emit(Op::pop);
  }

  void compile_builtin(const Expr& e, bool want_value) {
    auto need_args = [&](std::size_t n) {
      if (e.children.size() != n) {
        throw LangError("builtin '" + e.name + "' expects " +
                            std::to_string(n) + " argument(s)",
                        e.loc);
      }
    };
    if (e.name == "len") {
      need_args(1);
      const Expr* arg = e.children[0].get();
      if (arg->kind != ExprKind::path_read) {
        throw LangError("len() takes an array field", e.loc);
      }
      const ResolvedArray arr = resolve_array(arg->path);
      note_array(arr.scope, arr.slot, false);
      emit(Op::array_len, state_operand(arr.scope, arr.slot));
    } else if (e.name == "rand") {
      need_args(1);
      compile_expr(e.children[0].get(), true, false);
      emit(Op::rand_below);
    } else if (e.name == "clock") {
      need_args(0);
      emit(Op::clock_ns);
    } else if (e.name == "min" || e.name == "max") {
      need_args(2);
      compile_expr(e.children[0].get(), true, false);
      compile_expr(e.children[1].get(), true, false);
      emit(e.name == "min" ? Op::min2 : Op::max2);
    } else {  // abs
      need_args(1);
      compile_expr(e.children[0].get(), true, false);
      emit(Op::abs1);
    }
    if (!want_value) emit(Op::pop);
  }

  // --- Path compilation ----------------------------------------------------

  struct ResolvedArray {
    Scope scope = Scope::packet;
    std::uint16_t slot = 0;
    std::uint16_t stride = 1;
    Access access = Access::read_only;
    std::string field_name;  // for record field offsets
  };

  // Resolves a path that must name a whole array: either
  // `stateparam.field` or a bare array alias local.
  ResolvedArray resolve_array(const Path& path) const {
    const Symbol* root = lookup(path.root);
    if (root == nullptr) {
      throw LangError("unbound variable '" + path.root + "'", path.loc);
    }
    if (root->kind == Symbol::Kind::array_ref) {
      if (!path.elems.empty()) {
        throw LangError("unexpected path after array alias '" + path.root +
                        "'",
                        path.loc);
      }
      return ResolvedArray{root->field.scope, root->field.slot,
                           root->field.stride, root->field.access,
                           root->field_name};
    }
    if (root->kind == Symbol::Kind::state_param && path.elems.size() == 1 &&
        !path.elems[0].field.empty()) {
      const auto slot = schema_.find(root->scope, path.elems[0].field);
      if (!slot) {
        throw LangError("unknown " + std::string(scope_name(root->scope)) +
                        " field '" + path.elems[0].field + "'",
                        path.loc);
      }
      if (slot->kind == FieldKind::scalar) {
        throw LangError("field '" + path.elems[0].field +
                        "' is a scalar, not an array",
                        path.loc);
      }
      return ResolvedArray{slot->scope, slot->slot, slot->stride,
                           slot->access, path.elems[0].field};
    }
    throw LangError("expected an array field", path.loc);
  }

  // A fully resolved path access, ready for load or store emission.
  struct PathAccess {
    enum class Kind { local, state_scalar, state_array_elem, array_len };
    Kind kind = Kind::local;
    int local_slot = 0;
    Scope scope = Scope::packet;
    std::uint16_t slot = 0;
    Access access = Access::read_write;
    std::string description;
  };

  // Resolves `e.path` and, for array element accesses, emits the code
  // that computes the flat element index (leaving it on the stack).
  PathAccess resolve_and_emit_index(const Path& path) {
    const Symbol* root = lookup(path.root);
    if (root == nullptr) {
      throw LangError("unbound variable '" + path.root + "'", path.loc);
    }

    switch (root->kind) {
      case Symbol::Kind::int_local: {
        if (!path.elems.empty()) {
          throw LangError("'" + path.root +
                          "' is a plain value; it has no fields",
                          path.loc);
        }
        PathAccess acc;
        acc.kind = PathAccess::Kind::local;
        acc.local_slot = root->slot;
        acc.description = path.root;
        return acc;
      }
      case Symbol::Kind::function:
        throw LangError("function '" + path.root + "' used as a value",
                        path.loc);
      case Symbol::Kind::array_ref: {
        ResolvedArray arr{root->field.scope, root->field.slot,
                          root->field.stride, root->field.access,
                          root->field_name};
        return emit_array_access(arr, path, /*first_elem=*/0);
      }
      case Symbol::Kind::state_param: {
        if (path.elems.empty() || path.elems[0].field.empty()) {
          throw LangError("state parameter '" + path.root +
                          "' must be followed by a field name",
                          path.loc);
        }
        const std::string& field = path.elems[0].field;
        const auto slot = schema_.find(root->scope, field);
        if (!slot) {
          throw LangError("unknown " + std::string(scope_name(root->scope)) +
                          " field '" + field + "'",
                          path.loc);
        }
        if (slot->kind == FieldKind::scalar) {
          if (path.elems.size() != 1) {
            throw LangError("scalar field '" + field +
                            "' has no sub-fields",
                            path.loc);
          }
          PathAccess acc;
          acc.kind = PathAccess::Kind::state_scalar;
          acc.scope = slot->scope;
          acc.slot = slot->slot;
          acc.access = slot->access;
          acc.description = field;
          return acc;
        }
        ResolvedArray arr{slot->scope, slot->slot, slot->stride, slot->access,
                          field};
        return emit_array_access(arr, path, /*first_elem=*/1);
      }
    }
    throw LangError("internal: unhandled symbol kind", path.loc);
  }

  PathAccess emit_array_access(const ResolvedArray& arr, const Path& path,
                               std::size_t first_elem) {
    // Accepted shapes after the array itself:
    //   .length                      -> element count
    //   [i]                          -> element (plain arrays)
    //   [i].field                    -> record field (record arrays)
    const std::size_t remaining = path.elems.size() - first_elem;
    if (remaining == 1 && path.elems[first_elem].field == "length") {
      PathAccess acc;
      acc.kind = PathAccess::Kind::array_len;
      acc.scope = arr.scope;
      acc.slot = arr.slot;
      acc.access = arr.access;
      acc.description = arr.field_name;
      return acc;
    }
    if (remaining == 0) {
      throw LangError("array '" + arr.field_name +
                      "' must be indexed or measured with .length",
                      path.loc);
    }
    if (!path.elems[first_elem].index) {
      throw LangError("expected an index into array '" + arr.field_name + "'",
                      path.loc);
    }

    compile_expr(path.elems[first_elem].index.get(), true, false);

    int field_offset = -1;
    if (arr.stride > 1) {
      if (remaining != 2 || path.elems[first_elem + 1].field.empty()) {
        throw LangError("record array '" + arr.field_name +
                        "' elements must be accessed as [i].field",
                        path.loc);
      }
      field_offset = schema_.record_field_offset(
          arr.scope, arr.field_name, path.elems[first_elem + 1].field);
      if (field_offset < 0) {
        throw LangError("record array '" + arr.field_name +
                        "' has no field '" +
                        path.elems[first_elem + 1].field + "'",
                        path.loc);
      }
      emit(Op::push, 0, arr.stride);
      emit(Op::mul);
      if (field_offset > 0) {
        emit(Op::push, 0, field_offset);
        emit(Op::add);
      }
    } else {
      if (remaining != 1) {
        throw LangError("array '" + arr.field_name +
                        "' elements are plain values",
                        path.loc);
      }
    }

    PathAccess acc;
    acc.kind = PathAccess::Kind::state_array_elem;
    acc.scope = arr.scope;
    acc.slot = arr.slot;
    acc.access = arr.access;
    acc.description = arr.field_name;
    return acc;
  }

  void compile_path_read(const Expr& e, bool want_value) {
    PathAccess acc = resolve_and_emit_index(e.path);
    switch (acc.kind) {
      case PathAccess::Kind::local:
        emit(Op::load_local, acc.local_slot);
        break;
      case PathAccess::Kind::state_scalar:
        note_scalar(acc.scope, acc.slot, false);
        emit(Op::load_state, state_operand(acc.scope, acc.slot));
        break;
      case PathAccess::Kind::state_array_elem:
        note_array(acc.scope, acc.slot, false);
        emit(Op::array_load, state_operand(acc.scope, acc.slot));
        break;
      case PathAccess::Kind::array_len:
        note_array(acc.scope, acc.slot, false);
        emit(Op::array_len, state_operand(acc.scope, acc.slot));
        break;
    }
    if (!want_value) emit(Op::pop);
  }

  void compile_assign(const Expr& e, bool want_value) {
    PathAccess acc = resolve_and_emit_index(e.path);
    if (acc.kind == PathAccess::Kind::array_len) {
      throw LangError("cannot assign to .length", e.loc);
    }
    if (acc.kind != PathAccess::Kind::local &&
        acc.access != Access::read_write) {
      throw LangError("state field '" + acc.description +
                      "' is read-only for this function",
                      e.loc);
    }
    compile_expr(e.children[0].get(), true, false);
    switch (acc.kind) {
      case PathAccess::Kind::local:
        emit(Op::store_local, acc.local_slot);
        break;
      case PathAccess::Kind::state_scalar:
        note_scalar(acc.scope, acc.slot, true);
        emit(Op::store_state, state_operand(acc.scope, acc.slot));
        break;
      case PathAccess::Kind::state_array_elem:
        note_array(acc.scope, acc.slot, true);
        emit(Op::array_store, state_operand(acc.scope, acc.slot));
        break;
      case PathAccess::Kind::array_len:
        break;  // unreachable, rejected above
    }
    // Assignment evaluates to unit (0), like F#.
    if (want_value) emit(Op::push, 0, 0);
  }

  const Program& program_;
  const StateSchema& schema_;
  const CompileOptions& options_;
  CompiledProgram out_;

  std::vector<std::pair<std::string, Symbol>> state_params_;
  std::vector<std::unique_ptr<FuncDef>> defs_;
  std::deque<FuncDef*> queue_;
  FuncCtx ctx_;
};

}  // namespace

CompiledProgram compile(const Program& program, const StateSchema& schema,
                        const CompileOptions& options,
                        std::string source_name) {
  Compiler compiler(program, schema, options, std::move(source_name));
  return compiler.run();
}

CompiledProgram compile_source(std::string_view source,
                               const StateSchema& schema,
                               const CompileOptions& options,
                               std::string source_name) {
  const Program program = parse(source);
  return compile(program, schema, options, std::move(source_name));
}

}  // namespace eden::lang
