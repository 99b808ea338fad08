// Abstract syntax tree for Mini-C.
//
// Nodes are "fat" tagged structs stored in per-module arena slabs owned by
// Program (src/mc/arena.h); consumers traverse via the embedded pointers.
// The tree survives for the whole pipeline (sema annotates it in
// place; lowering, the points-to analysis and the analyses all read it). Nodes are trivially
// destructible — identifier spellings are interned string_views into arena
// bytes and child lists are arena arrays — so an abandoned (error-path)
// parse frees completely when the Program drops its arena.
#ifndef SRC_MC_AST_H_
#define SRC_MC_AST_H_

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/mc/arena.h"
#include "src/mc/types.h"
#include "src/support/source.h"

namespace ivy {

struct FuncDecl;
struct Stmt;
struct Symbol;
struct VarDecl;

enum class ExprKind {
  kIntLit,   // int_val (type int or char)
  kStrLit,   // str_val; type char* nullterm
  kNull,     // null pointer constant
  kIdent,    // str_val = name; sym set by sema
  kUnary,    // un_op a
  kBinary,   // a bin_op b
  kAssign,   // a = b, or compound a op= b (assign_op)
  kCond,     // a ? b : c
  kCall,     // a(args...); a is kIdent for direct calls or any fn-ptr expr
  kIndex,    // a[b]
  kMember,   // a.field / a->field (is_arrow)
  kDeref,    // *a
  kAddrOf,   // &a
  kCast,     // (cast_type) a
  kSizeof,   // sizeof(type) or sizeof(expr); folded to int_val by sema
  kIncDec,   // ++/-- pre/post (is_inc, is_prefix)
};

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kRem,
  kShl, kShr,
  kLt, kGt, kLe, kGe, kEq, kNe,
  kBitAnd, kBitOr, kBitXor,
  kLogAnd, kLogOr,
  kNone,  // used as assign_op for plain '='
};

enum class UnOp { kNeg, kLogNot, kBitNot };

// Arena-allocated child list: one bump allocation, no destructor. Iterates
// like the std::vector it replaced.
struct ExprList {
  Expr** items = nullptr;
  uint32_t count = 0;
  uint32_t size() const { return count; }
  bool empty() const { return count == 0; }
  Expr* operator[](size_t i) const { return items[i]; }
  Expr* back() const { return items[count - 1]; }
  Expr* const* begin() const { return items; }
  Expr* const* end() const { return items + count; }
};

struct StmtList {
  Stmt** items = nullptr;
  uint32_t count = 0;
  uint32_t size() const { return count; }
  bool empty() const { return count == 0; }
  Stmt* operator[](size_t i) const { return items[i]; }
  Stmt* back() const { return items[count - 1]; }
  Stmt* const* begin() const { return items; }
  Stmt* const* end() const { return items + count; }
};

struct Expr {
  ExprKind kind = ExprKind::kIntLit;
  SourceLoc loc;
  const Type* type = nullptr;  // set by sema

  int64_t int_val = 0;
  // Identifier spelling, string value, or member name: a view into the
  // module's interned string bytes.
  std::string_view str_val;
  Expr* a = nullptr;
  Expr* b = nullptr;
  Expr* c = nullptr;
  ExprList args;
  BinOp bin_op = BinOp::kNone;
  BinOp assign_op = BinOp::kNone;
  UnOp un_op = UnOp::kNeg;
  bool is_arrow = false;
  bool is_inc = false;
  bool is_prefix = false;
  const Type* cast_type = nullptr;  // kCast / kSizeof(type)

  // Sema results.
  Symbol* sym = nullptr;                  // kIdent resolution
  const RecordField* field = nullptr;     // kMember resolution
  RecordDecl* field_record = nullptr;     // record containing `field`
  bool in_trusted = false;                // lexically inside trusted code
  bool is_const = false;                  // compile-time constant (int_val valid)

  bool IsNullConst() const {
    return kind == ExprKind::kNull || (kind == ExprKind::kIntLit && int_val == 0);
  }
};

enum class StmtKind {
  kExpr,
  kDecl,     // local variable declaration
  kIf,
  kWhile,
  kDoWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kBlock,
  kSeq,          // statement sequence without its own scope (multi-declarators)
  kTrusted,      // trusted { ... }: Deputy emits no checks inside
  kDelayedFree,  // delayed_free { ... }: CCount defers frees to scope end
  kEmpty,
};

// A variable declaration (local or global).
struct VarDecl {
  std::string_view name;       // interned
  const Type* type = nullptr;
  Expr* init = nullptr;
  Symbol* sym = nullptr;
  SourceLoc loc;
  bool is_global = false;
};

struct Stmt {
  StmtKind kind = StmtKind::kEmpty;
  SourceLoc loc;
  Expr* expr = nullptr;         // kExpr, kReturn (nullable), conditions
  VarDecl* decl = nullptr;      // kDecl
  Stmt* init = nullptr;         // kFor
  Expr* cond = nullptr;         // kIf/kWhile/kDoWhile/kFor (kFor may be null)
  Expr* step = nullptr;         // kFor
  Stmt* then_stmt = nullptr;    // kIf / loop body
  Stmt* else_stmt = nullptr;    // kIf
  StmtList body;                // kBlock/kTrusted/kDelayedFree
};

// Arena teardown is bulk chunk frees; nothing here may own heap memory.
static_assert(std::is_trivially_destructible_v<Expr>,
              "Expr must stay trivially destructible (arena-allocated)");
static_assert(std::is_trivially_destructible_v<Stmt>,
              "Stmt must stay trivially destructible (arena-allocated)");
static_assert(std::is_trivially_destructible_v<VarDecl>,
              "VarDecl must stay trivially destructible (arena-allocated)");

enum class SymKind { kGlobal, kLocal, kParam, kFunc, kEnumConst, kTypedefName };

// A named entity. Sema interns one Symbol per declaration.
struct Symbol {
  std::string name;
  SymKind kind = SymKind::kLocal;
  const Type* type = nullptr;
  FuncDecl* func = nullptr;  // kFunc
  VarDecl* var = nullptr;    // kGlobal / kLocal / kParam
  int64_t enum_value = 0;    // kEnumConst
  int param_index = -1;      // kParam
  SourceLoc loc;
  bool address_taken = false;

  // Lowering results.
  int64_t frame_offset = -1;   // locals/params: offset in the VM stack frame
  int64_t global_addr = 0;     // globals: absolute address in VM memory
};

// Function attributes (BlockStop / ErrCheck / trust annotations, §2.3, §3.1).
struct FuncAttrs {
  bool blocking = false;            // may sleep unconditionally
  int blocking_if_param = -1;       // blocks iff this param has GFP_WAIT set
  bool noblock = false;             // carries the run-time "not atomic" check
  bool interrupt_handler = false;   // entered with interrupts disabled
  bool trusted = false;             // whole function trusted (E1 accounting)
  std::vector<int64_t> errcodes;    // error codes this function may return

  // Cross-module link facts. Never produced by the parser: these are set by
  // AnnoDb::ApplyAttributes' import path (src/annodb/annodb.h) from another
  // module's exported summaries, so a module can analyze calls into — and
  // entries from — the rest of a linked corpus. See docs/ARCHITECTURE.md
  // "Cross-module linking".
  bool returns_error = false;       // err-returning in its defining module
  bool entered_atomic = false;      // some other module may call this atomically
  bool entered_in_irq = false;      // reachable from another module's irq entry
  bool cross_recursive = false;     // on a cross-module call cycle
  int64_t stack_below = -1;         // worst-case stack depth of the callee subtree
  std::string block_witness;        // definer's witness for an imported may-block bit
};

struct FuncDecl {
  std::string name;
  const Type* type = nullptr;  // kFunc type
  std::vector<Symbol*> params;
  Stmt* body = nullptr;  // null for extern declarations / builtins
  FuncAttrs attrs;
  SourceLoc loc;
  bool is_builtin = false;
  int builtin_id = -1;  // index into the VM builtin table
  int func_id = -1;     // dense program-wide id
  // Set by lowering: total bytes of locals + params (StackCheck input).
  int64_t frame_size = 0;
};

// Node + list + string storage for one module's AST. Dropping it frees the
// whole tree in O(chunks); see src/mc/arena.h for the layout.
struct AstArena {
  AstArena() : interner(&bytes) {}
  AstArena(const AstArena&) = delete;  // the interner points into `bytes`
  AstArena& operator=(const AstArena&) = delete;
  BumpArena bytes;        // child lists + interned string bytes
  NodeSlab<Expr> exprs;
  NodeSlab<Stmt> stmts;
  NodeSlab<VarDecl> decls;
  StringInterner interner;

  size_t TotalBytes() const {
    return bytes.reserved_bytes() + exprs.bytes() + stmts.bytes() +
           decls.bytes();
  }
};

// A whole Mini-C program: arena plus top-level declarations. Created by the
// Parser, completed by Sema, then read-only.
class Program {
 public:
  Program() = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  Expr* NewExpr(ExprKind kind, SourceLoc loc);
  Stmt* NewStmt(StmtKind kind, SourceLoc loc);
  Type* NewType(TypeKind kind);
  VarDecl* NewVarDecl();
  RecordDecl* NewRecord();
  FuncDecl* NewFunc();
  Symbol* NewSymbol();

  // String interning.
  std::string_view Intern(std::string_view s) { return arena_.interner.Intern(s); }
  const StringInterner& interner() const { return arena_.interner; }
  void SeedInterner(std::shared_ptr<const InternSnapshot> base) {
    arena_.interner.Seed(std::move(base));
  }

  // Copies a scratch vector into an arena-owned array.
  ExprList MakeExprList(const std::vector<Expr*>& v);
  StmtList MakeStmtList(const std::vector<Stmt*>& v);

  const AstArena& arena() const { return arena_; }

  // Canonical primitive types.
  const Type* IntType();
  const Type* CharType();
  const Type* VoidType();
  // A fresh pointer type (annotations make pointers non-internable).
  Type* PtrTo(const Type* pointee);

  std::vector<RecordDecl*> records;
  std::vector<FuncDecl*> funcs;
  std::vector<VarDecl*> globals;
  // Enum constants and typedefs, for lookup in sema and the cast parser.
  // Keyed by interned views (stable for the Program's lifetime), so lookups
  // from Expr::str_val need no temporary std::string.
  std::unordered_map<std::string_view, int64_t> enum_consts;
  std::unordered_map<std::string_view, const Type*> typedefs;

  FuncDecl* FindFunc(std::string_view name) const;
  RecordDecl* FindRecord(std::string_view name) const;

 private:
  template <typename T>
  T* Alloc(std::vector<std::unique_ptr<T>>* pool) {
    pool->push_back(std::make_unique<T>());
    return pool->back().get();
  }

  AstArena arena_;
  std::vector<std::unique_ptr<Type>> type_pool_;
  std::vector<std::unique_ptr<RecordDecl>> record_pool_;
  std::vector<std::unique_ptr<FuncDecl>> func_pool_;
  std::vector<std::unique_ptr<Symbol>> sym_pool_;
  const Type* int_type_ = nullptr;
  const Type* char_type_ = nullptr;
  const Type* void_type_ = nullptr;
};

}  // namespace ivy

#endif  // SRC_MC_AST_H_
