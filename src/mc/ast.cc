#include "src/mc/ast.h"

#include <cstring>

namespace ivy {

int64_t TypeSize(const Type* t) {
  switch (t->kind) {
    case TypeKind::kVoid:
      return 1;  // permits void* arithmetic in trusted code
    case TypeKind::kInt:
      return 8;
    case TypeKind::kChar:
      return 1;
    case TypeKind::kPointer:
      return 8;
    case TypeKind::kArray:
      return t->array_len * TypeSize(t->elem);
    case TypeKind::kRecord:
      return t->record->size;
    case TypeKind::kFunc:
      return 8;
    case TypeKind::kError:
      return 8;
  }
  return 8;
}

int64_t TypeAlign(const Type* t) {
  switch (t->kind) {
    case TypeKind::kVoid:
    case TypeKind::kChar:
      return 1;
    case TypeKind::kInt:
    case TypeKind::kPointer:
    case TypeKind::kFunc:
    case TypeKind::kError:
      return 8;
    case TypeKind::kArray:
      return TypeAlign(t->elem);
    case TypeKind::kRecord:
      return t->record->align;
  }
  return 8;
}

bool SameType(const Type* a, const Type* b) {
  if (a == b) {
    return true;
  }
  if (a == nullptr || b == nullptr || a->kind != b->kind) {
    return false;
  }
  switch (a->kind) {
    case TypeKind::kVoid:
    case TypeKind::kInt:
    case TypeKind::kChar:
    case TypeKind::kError:
      return true;
    case TypeKind::kPointer:
      return SameType(a->pointee, b->pointee);
    case TypeKind::kArray:
      return a->array_len == b->array_len && SameType(a->elem, b->elem);
    case TypeKind::kRecord:
      return a->record == b->record;
    case TypeKind::kFunc: {
      if (!SameType(a->ret, b->ret) || a->params.size() != b->params.size()) {
        return false;
      }
      for (size_t i = 0; i < a->params.size(); ++i) {
        if (!SameType(a->params[i], b->params[i])) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

std::string TypeToString(const Type* t) {
  if (t == nullptr) {
    return "<null>";
  }
  switch (t->kind) {
    case TypeKind::kVoid:
      return "void";
    case TypeKind::kInt:
      return "int";
    case TypeKind::kChar:
      return "char";
    case TypeKind::kError:
      return "<error>";
    case TypeKind::kPointer: {
      std::string s = TypeToString(t->pointee) + "*";
      switch (t->annot.bounds) {
        case BoundsKind::kSingle:
          break;
        case BoundsKind::kCount:
          s += " count(..)";
          break;
        case BoundsKind::kBound:
          s += " bound(..)";
          break;
        case BoundsKind::kNullterm:
          s += " nullterm";
          break;
      }
      if (t->annot.opt) {
        s += " opt";
      }
      if (t->annot.trusted) {
        s += " trusted";
      }
      return s;
    }
    case TypeKind::kArray:
      return TypeToString(t->elem) + "[" + std::to_string(t->array_len) + "]";
    case TypeKind::kRecord:
      return (t->record->is_union ? "union " : "struct ") +
             (t->record->name.empty() ? "<anon>" : t->record->name);
    case TypeKind::kFunc: {
      std::string s = TypeToString(t->ret) + "(";
      for (size_t i = 0; i < t->params.size(); ++i) {
        if (i != 0) {
          s += ", ";
        }
        s += TypeToString(t->params[i]);
      }
      return s + ")";
    }
  }
  return "?";
}

Expr* Program::NewExpr(ExprKind kind, SourceLoc loc) {
  Expr* e = arena_.exprs.New();
  e->kind = kind;
  e->loc = loc;
  return e;
}

Stmt* Program::NewStmt(StmtKind kind, SourceLoc loc) {
  Stmt* s = arena_.stmts.New();
  s->kind = kind;
  s->loc = loc;
  return s;
}

Type* Program::NewType(TypeKind kind) {
  Type* t = Alloc(&type_pool_);
  t->kind = kind;
  return t;
}

VarDecl* Program::NewVarDecl() { return arena_.decls.New(); }

RecordDecl* Program::NewRecord() { return Alloc(&record_pool_); }
FuncDecl* Program::NewFunc() { return Alloc(&func_pool_); }
Symbol* Program::NewSymbol() { return Alloc(&sym_pool_); }

ExprList Program::MakeExprList(const std::vector<Expr*>& v) {
  ExprList list;
  list.count = static_cast<uint32_t>(v.size());
  if (!v.empty()) {
    list.items = static_cast<Expr**>(
        arena_.bytes.Alloc(v.size() * sizeof(Expr*), alignof(Expr*)));
    std::memcpy(list.items, v.data(), v.size() * sizeof(Expr*));
  }
  return list;
}

StmtList Program::MakeStmtList(const std::vector<Stmt*>& v) {
  StmtList list;
  list.count = static_cast<uint32_t>(v.size());
  if (!v.empty()) {
    list.items = static_cast<Stmt**>(
        arena_.bytes.Alloc(v.size() * sizeof(Stmt*), alignof(Stmt*)));
    std::memcpy(list.items, v.data(), v.size() * sizeof(Stmt*));
  }
  return list;
}

const Type* Program::IntType() {
  if (int_type_ == nullptr) {
    int_type_ = NewType(TypeKind::kInt);
  }
  return int_type_;
}

const Type* Program::CharType() {
  if (char_type_ == nullptr) {
    char_type_ = NewType(TypeKind::kChar);
  }
  return char_type_;
}

const Type* Program::VoidType() {
  if (void_type_ == nullptr) {
    void_type_ = NewType(TypeKind::kVoid);
  }
  return void_type_;
}

Type* Program::PtrTo(const Type* pointee) {
  Type* t = NewType(TypeKind::kPointer);
  t->pointee = pointee;
  return t;
}

FuncDecl* Program::FindFunc(std::string_view name) const {
  for (FuncDecl* f : funcs) {
    if (f->name == name) {
      return f;
    }
  }
  return nullptr;
}

RecordDecl* Program::FindRecord(std::string_view name) const {
  for (RecordDecl* r : records) {
    if (r->name == name) {
      return r;
    }
  }
  return nullptr;
}

}  // namespace ivy
