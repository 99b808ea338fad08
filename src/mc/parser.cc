#include "src/mc/parser.h"

namespace ivy {

Parser::Parser(Program* prog, std::vector<Token> tokens, DiagEngine* diags)
    : prog_(prog), owned_tokens_(std::move(tokens)), tokens_(&owned_tokens_),
      diags_(diags) {}

Parser::Parser(Program* prog, const std::vector<Token>* tokens, DiagEngine* diags)
    : prog_(prog), tokens_(tokens), diags_(diags) {}

const Token& Parser::Ahead(int n) const {
  size_t p = pos_ + static_cast<size_t>(n);
  return p < tokens_->size() ? (*tokens_)[p] : tokens_->back();
}

void Parser::Advance() {
  if (pos_ + 1 < tokens_->size()) {
    ++pos_;
  }
}

bool Parser::Accept(Tok t) {
  if (At(t)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::AtIdentLike() const {
  switch (Cur().kind) {
    case Tok::kIdent:
    case Tok::kKwCount:
    case Tok::kKwBound:
    case Tok::kKwNullterm:
    case Tok::kKwOpt:
    case Tok::kKwNonnull:
    case Tok::kKwWhen:
    case Tok::kKwBlocking:
    case Tok::kKwNoblock:
    case Tok::kKwErrcode:
      return true;
    default:
      return false;
  }
}

bool Parser::Expect(Tok t, const char* context) {
  if (Accept(t)) {
    return true;
  }
  diags_->Error(Cur().loc,
                std::string("expected ") + TokName(t) + " " + context + ", found " +
                    TokName(Cur().kind),
                "parse");
  return false;
}

void Parser::SyncToSemi() {
  while (!At(Tok::kEof) && !At(Tok::kSemi) && !At(Tok::kRBrace)) {
    Advance();
  }
  Accept(Tok::kSemi);
}

bool Parser::AtTypeStart() const {
  switch (Cur().kind) {
    case Tok::kKwInt:
    case Tok::kKwChar:
    case Tok::kKwVoid:
    case Tok::kKwStruct:
    case Tok::kKwUnion:
    case Tok::kKwConst:
      return true;
    case Tok::kIdent:
      return prog_->typedefs.count(Cur().text) > 0;
    default:
      return false;
  }
}

const Type* Parser::ParseBaseType() {
  Accept(Tok::kKwConst);  // const is accepted and ignored (erasure semantics)
  SourceLoc loc = Cur().loc;
  switch (Cur().kind) {
    case Tok::kKwInt:
      Advance();
      return prog_->IntType();
    case Tok::kKwChar:
      Advance();
      return prog_->CharType();
    case Tok::kKwVoid:
      Advance();
      return prog_->VoidType();
    case Tok::kKwStruct:
    case Tok::kKwUnion: {
      bool is_union = At(Tok::kKwUnion);
      Advance();
      if (!At(Tok::kIdent)) {
        diags_->Error(loc, "expected record name", "parse");
        return prog_->NewType(TypeKind::kError);
      }
      std::string name = Cur().text;
      Advance();
      RecordDecl* rec = prog_->FindRecord(name);
      if (rec == nullptr) {
        rec = prog_->NewRecord();
        rec->name = name;
        rec->is_union = is_union;
        rec->loc = loc;
        prog_->records.push_back(rec);
      }
      Type* t = prog_->NewType(TypeKind::kRecord);
      t->record = rec;
      return t;
    }
    case Tok::kIdent: {
      auto it = prog_->typedefs.find(Cur().text);
      if (it != prog_->typedefs.end()) {
        Advance();
        return it->second;
      }
      diags_->Error(loc, "unknown type name '" + Cur().text + "'", "parse");
      Advance();
      return prog_->NewType(TypeKind::kError);
    }
    default:
      diags_->Error(loc, std::string("expected type, found ") + TokName(Cur().kind), "parse");
      Advance();
      return prog_->NewType(TypeKind::kError);
  }
}

void Parser::ParsePtrAnnots(PtrAnnot* annot) {
  for (;;) {
    switch (Cur().kind) {
      case Tok::kKwCount: {
        Advance();
        Expect(Tok::kLParen, "after 'count'");
        annot->bounds = BoundsKind::kCount;
        annot->count = ParseExpr();
        Expect(Tok::kRParen, "after count expression");
        break;
      }
      case Tok::kKwBound: {
        Advance();
        Expect(Tok::kLParen, "after 'bound'");
        annot->bounds = BoundsKind::kBound;
        annot->lo = ParseExpr();
        Expect(Tok::kComma, "in bound()");
        annot->hi = ParseExpr();
        Expect(Tok::kRParen, "after bound expressions");
        break;
      }
      case Tok::kKwNullterm:
        Advance();
        annot->bounds = BoundsKind::kNullterm;
        break;
      case Tok::kKwOpt:
        Advance();
        annot->opt = true;
        break;
      case Tok::kKwNonnull:
        Advance();
        annot->opt = false;
        break;
      case Tok::kKwTrusted:
        Advance();
        annot->trusted = true;
        break;
      default:
        return;
    }
  }
}

const Type* Parser::ParseType() {
  const Type* t = ParseBaseType();
  while (At(Tok::kStar)) {
    Advance();
    Type* p = prog_->PtrTo(t);
    ParsePtrAnnots(&p->annot);
    t = p;
  }
  return t;
}

const Type* Parser::ParseArraySuffix(const Type* base) {
  const Type* t = base;
  if (Accept(Tok::kLBracket)) {
    Expr* len = ParseExpr();
    int64_t n = 0;
    if (!EvalConstInt(len, &n) || n <= 0) {
      diags_->Error(len != nullptr ? len->loc : Cur().loc,
                    "array length must be a positive constant", "parse");
      n = 1;
    }
    Expect(Tok::kRBracket, "after array length");
    Type* arr = prog_->NewType(TypeKind::kArray);
    arr->elem = t;
    arr->array_len = n;
    t = arr;
  }
  return t;
}

void Parser::ParseTranslationUnit() {
  while (!At(Tok::kEof)) {
    ParseTopLevel();
  }
}

void Parser::ParseTopLevel() {
  switch (Cur().kind) {
    case Tok::kKwTypedef:
      ParseTypedef();
      return;
    case Tok::kKwStruct:
    case Tok::kKwUnion: {
      // Distinguish "struct S { ... };" (definition) from "struct S x;".
      if (Ahead(1).kind == Tok::kIdent && Ahead(2).kind == Tok::kLBrace) {
        ParseRecord(Cur().kind == Tok::kKwUnion);
        return;
      }
      ParseFuncOrGlobal();
      return;
    }
    case Tok::kKwEnum:
      ParseEnum();
      return;
    case Tok::kSemi:
      Advance();
      return;
    case Tok::kKwExtern:
    case Tok::kKwStatic:
      Advance();  // storage classes accepted and ignored
      ParseTopLevel();
      return;
    default:
      if (AtTypeStart()) {
        ParseFuncOrGlobal();
        return;
      }
      diags_->Error(Cur().loc,
                    std::string("expected declaration, found ") + TokName(Cur().kind), "parse");
      Advance();
      SyncToSemi();
  }
}

void Parser::ParseTypedef() {
  Advance();  // typedef
  const Type* base = ParseType();
  if (!At(Tok::kIdent)) {
    diags_->Error(Cur().loc, "expected typedef name", "parse");
    SyncToSemi();
    return;
  }
  std::string name = Cur().text;
  SourceLoc loc = Cur().loc;
  Advance();
  if (At(Tok::kLParen)) {
    // Function type typedef: typedef RET NAME(params...);
    Advance();
    Type* fn = prog_->NewType(TypeKind::kFunc);
    fn->ret = base;
    if (!At(Tok::kRParen)) {
      do {
        if (At(Tok::kKwVoid) && Ahead(1).kind == Tok::kRParen) {
          Advance();
          break;
        }
        const Type* pt = ParseType();
        if (At(Tok::kIdent)) {
          Advance();  // parameter names in typedefs are documentation only
        }
        fn->params.push_back(pt);
      } while (Accept(Tok::kComma));
    }
    Expect(Tok::kRParen, "after typedef parameter list");
    prog_->typedefs[prog_->Intern(name)] = fn;
  } else {
    const Type* t = ParseArraySuffix(base);
    prog_->typedefs[prog_->Intern(name)] = t;
  }
  if (prog_->typedefs.count(name) == 0) {
    diags_->Error(loc, "typedef failed", "parse");
  }
  Expect(Tok::kSemi, "after typedef");
}

void Parser::ParseRecord(bool is_union) {
  SourceLoc loc = Cur().loc;
  Advance();  // struct/union
  std::string name = Cur().text;
  Advance();  // name
  RecordDecl* rec = prog_->FindRecord(name);
  if (rec != nullptr && rec->complete) {
    diags_->Error(loc, "redefinition of record '" + name + "'", "parse");
    rec = prog_->NewRecord();  // parse into a throwaway
  }
  if (rec == nullptr) {
    rec = prog_->NewRecord();
    rec->name = name;
    rec->loc = loc;
    prog_->records.push_back(rec);
  }
  rec->is_union = is_union;
  ParseRecordBody(rec, nullptr);
  Expect(Tok::kSemi, "after record definition");
}

RecordDecl* Parser::ParseRecordBody(RecordDecl* rec, RecordDecl* parent_struct) {
  Expect(Tok::kLBrace, "to open record body");
  rec->parent_struct = parent_struct;
  int index = 0;
  while (!At(Tok::kRBrace) && !At(Tok::kEof)) {
    // Inline anonymous union: "union { fields } name;"
    if (At(Tok::kKwUnion) && Ahead(1).kind == Tok::kLBrace) {
      SourceLoc uloc = Cur().loc;
      Advance();
      RecordDecl* inner = prog_->NewRecord();
      inner->name = rec->name + "::$union" + std::to_string(anon_union_count_++);
      inner->is_union = true;
      inner->loc = uloc;
      prog_->records.push_back(inner);
      ParseRecordBody(inner, rec);
      RecordField f;
      Type* ut = prog_->NewType(TypeKind::kRecord);
      ut->record = inner;
      f.type = ut;
      f.loc = uloc;
      if (At(Tok::kIdent)) {
        f.name = Cur().text;
        Advance();
      } else {
        diags_->Error(Cur().loc, "inline union must be a named field", "parse");
      }
      f.index = index++;
      rec->fields.push_back(f);
      Expect(Tok::kSemi, "after union field");
      continue;
    }
    const Type* base = ParseType();
    if (!AtIdentLike()) {
      diags_->Error(Cur().loc, "expected field name", "parse");
      SyncToSemi();
      continue;
    }
    RecordField f;
    f.name = Cur().text;
    f.loc = Cur().loc;
    Advance();
    f.type = ParseArraySuffix(base);
    if (Accept(Tok::kKwWhen)) {
      Expect(Tok::kLParen, "after 'when'");
      f.when = ParseExpr();
      Expect(Tok::kRParen, "after when expression");
    }
    f.index = index++;
    rec->fields.push_back(f);
    Expect(Tok::kSemi, "after field");
  }
  Expect(Tok::kRBrace, "to close record body");
  rec->complete = true;
  return rec;
}

void Parser::ParseEnum() {
  Advance();  // enum
  if (At(Tok::kIdent)) {
    Advance();  // optional tag, ignored (enum values are plain ints)
  }
  Expect(Tok::kLBrace, "to open enum");
  int64_t next = 0;
  while (At(Tok::kIdent)) {
    std::string name = Cur().text;
    SourceLoc loc = Cur().loc;
    Advance();
    if (Accept(Tok::kAssign)) {
      Expr* e = ParseCond();
      int64_t v = 0;
      if (!EvalConstInt(e, &v)) {
        diags_->Error(loc, "enum value must be constant", "parse");
      }
      next = v;
    }
    if (prog_->enum_consts.count(name) != 0) {
      diags_->Error(loc, "duplicate enum constant '" + name + "'", "parse");
    }
    prog_->enum_consts[prog_->Intern(name)] = next;
    ++next;
    if (!Accept(Tok::kComma)) {
      break;
    }
  }
  Expect(Tok::kRBrace, "to close enum");
  Expect(Tok::kSemi, "after enum");
}

FuncAttrs Parser::ParseFuncAttrs() {
  FuncAttrs attrs;
  for (;;) {
    switch (Cur().kind) {
      case Tok::kKwBlocking:
        Advance();
        attrs.blocking = true;
        break;
      case Tok::kKwBlockingIf: {
        Advance();
        Expect(Tok::kLParen, "after 'blocking_if'");
        if (At(Tok::kIdent)) {
          // Resolved to a parameter index in sema; store the name via errcodes
          // trick is ugly, so stash the spelling in a dedicated field below.
          attrs.blocking_if_param = -2;  // marker: name follows in blocking_if_name
          blocking_if_name_ = Cur().text;
          Advance();
        } else {
          diags_->Error(Cur().loc, "expected parameter name in blocking_if()", "parse");
        }
        Expect(Tok::kRParen, "after blocking_if parameter");
        break;
      }
      case Tok::kKwNoblock:
        Advance();
        attrs.noblock = true;
        break;
      case Tok::kKwInterruptHandler:
        Advance();
        attrs.interrupt_handler = true;
        break;
      case Tok::kKwTrusted:
        Advance();
        attrs.trusted = true;
        break;
      case Tok::kKwErrcode: {
        Advance();
        Expect(Tok::kLParen, "after 'errcode'");
        do {
          Expr* e = ParseCond();
          int64_t v = 0;
          if (EvalConstInt(e, &v)) {
            attrs.errcodes.push_back(v);
          } else {
            diags_->Error(Cur().loc, "errcode values must be constant", "parse");
          }
        } while (Accept(Tok::kComma));
        Expect(Tok::kRParen, "after errcode list");
        break;
      }
      default:
        return attrs;
    }
  }
}

void Parser::ParseFuncOrGlobal() {
  SourceLoc loc = Cur().loc;
  const Type* base = ParseType();
  if (!At(Tok::kIdent)) {
    diags_->Error(Cur().loc, "expected declaration name", "parse");
    SyncToSemi();
    return;
  }
  std::string name = Cur().text;
  loc = Cur().loc;
  Advance();
  if (At(Tok::kLParen)) {
    ParseFuncRest(base, name, loc);
    return;
  }
  // Global variable(s).
  for (;;) {
    VarDecl* g = prog_->NewVarDecl();
    SetName(g, name);
    g->loc = loc;
    g->is_global = true;
    g->type = ParseArraySuffix(base);
    if (Accept(Tok::kAssign)) {
      g->init = ParseAssign();
    }
    prog_->globals.push_back(g);
    if (!Accept(Tok::kComma)) {
      break;
    }
    if (!At(Tok::kIdent)) {
      diags_->Error(Cur().loc, "expected declarator name", "parse");
      break;
    }
    name = Cur().text;
    loc = Cur().loc;
    Advance();
  }
  Expect(Tok::kSemi, "after global declaration");
}

void Parser::ParseFuncRest(const Type* ret, const std::string& name, SourceLoc loc) {
  Advance();  // '('
  FuncDecl* fn = prog_->NewFunc();
  fn->name = name;
  fn->loc = loc;
  Type* fty = prog_->NewType(TypeKind::kFunc);
  fty->ret = ret;
  if (!At(Tok::kRParen)) {
    do {
      if (At(Tok::kKwVoid) && Ahead(1).kind == Tok::kRParen) {
        Advance();
        break;
      }
      if (At(Tok::kEllipsis)) {
        Advance();
        fty->varargs = true;
        break;
      }
      const Type* pt = ParseType();
      Symbol* p = prog_->NewSymbol();
      p->kind = SymKind::kParam;
      p->type = pt;
      p->param_index = static_cast<int>(fn->params.size());
      if (AtIdentLike()) {
        p->name = Cur().text;
        p->loc = Cur().loc;
        Advance();
      }
      fty->params.push_back(pt);
      fn->params.push_back(p);
    } while (Accept(Tok::kComma));
  }
  Expect(Tok::kRParen, "after parameter list");
  blocking_if_name_.clear();
  fn->attrs = ParseFuncAttrs();
  if (fn->attrs.blocking_if_param == -2) {
    fn->attrs.blocking_if_param = -1;
    for (size_t i = 0; i < fn->params.size(); ++i) {
      if (fn->params[i]->name == blocking_if_name_) {
        fn->attrs.blocking_if_param = static_cast<int>(i);
      }
    }
    if (fn->attrs.blocking_if_param < 0) {
      diags_->Error(loc, "blocking_if names unknown parameter '" + blocking_if_name_ + "'",
                    "parse");
    }
  }
  fn->type = fty;
  if (At(Tok::kLBrace)) {
    fn->body = ParseBlock(StmtKind::kBlock);
  } else {
    Expect(Tok::kSemi, "after function declaration");
  }
  prog_->funcs.push_back(fn);
}

Stmt* Parser::ParseBlock(StmtKind kind) {
  Stmt* block = prog_->NewStmt(kind, Cur().loc);
  Expect(Tok::kLBrace, "to open block");
  std::vector<Stmt*> body;
  while (!At(Tok::kRBrace) && !At(Tok::kEof)) {
    body.push_back(ParseStmt());
  }
  Expect(Tok::kRBrace, "to close block");
  block->body = prog_->MakeStmtList(body);
  return block;
}

Stmt* Parser::ParseDeclStmt() {
  SourceLoc loc = Cur().loc;
  const Type* base = ParseType();
  std::vector<Stmt*> decls;  // "int a, b;" -> kSeq of decls
  for (;;) {
    if (!AtIdentLike()) {
      diags_->Error(Cur().loc, "expected variable name", "parse");
      SyncToSemi();
      break;
    }
    VarDecl* d = prog_->NewVarDecl();
    SetName(d, Cur().text);
    d->loc = Cur().loc;
    Advance();
    d->type = ParseArraySuffix(base);
    if (Accept(Tok::kAssign)) {
      d->init = ParseAssign();
    }
    Stmt* s = prog_->NewStmt(StmtKind::kDecl, d->loc);
    s->decl = d;
    decls.push_back(s);
    if (!Accept(Tok::kComma)) {
      break;
    }
  }
  Expect(Tok::kSemi, "after declaration");
  if (decls.size() == 1) {
    return decls[0];
  }
  if (decls.empty()) {
    return prog_->NewStmt(StmtKind::kEmpty, loc);
  }
  Stmt* seq = prog_->NewStmt(StmtKind::kSeq, loc);
  seq->body = prog_->MakeStmtList(decls);
  return seq;
}

Stmt* Parser::ParseStmt() {
  SourceLoc loc = Cur().loc;
  switch (Cur().kind) {
    case Tok::kLBrace:
      return ParseBlock(StmtKind::kBlock);
    case Tok::kKwTrusted:
      Advance();
      return ParseBlock(StmtKind::kTrusted);
    case Tok::kKwDelayedFree:
      Advance();
      return ParseBlock(StmtKind::kDelayedFree);
    case Tok::kSemi: {
      Advance();
      return prog_->NewStmt(StmtKind::kEmpty, loc);
    }
    case Tok::kKwIf: {
      Advance();
      Stmt* s = prog_->NewStmt(StmtKind::kIf, loc);
      Expect(Tok::kLParen, "after 'if'");
      s->cond = ParseExpr();
      Expect(Tok::kRParen, "after if condition");
      s->then_stmt = ParseStmt();
      if (Accept(Tok::kKwElse)) {
        s->else_stmt = ParseStmt();
      }
      return s;
    }
    case Tok::kKwWhile: {
      Advance();
      Stmt* s = prog_->NewStmt(StmtKind::kWhile, loc);
      Expect(Tok::kLParen, "after 'while'");
      s->cond = ParseExpr();
      Expect(Tok::kRParen, "after while condition");
      s->then_stmt = ParseStmt();
      return s;
    }
    case Tok::kKwDo: {
      Advance();
      Stmt* s = prog_->NewStmt(StmtKind::kDoWhile, loc);
      s->then_stmt = ParseStmt();
      Expect(Tok::kKwWhile, "after do body");
      Expect(Tok::kLParen, "after 'while'");
      s->cond = ParseExpr();
      Expect(Tok::kRParen, "after do-while condition");
      Expect(Tok::kSemi, "after do-while");
      return s;
    }
    case Tok::kKwFor: {
      Advance();
      Stmt* s = prog_->NewStmt(StmtKind::kFor, loc);
      Expect(Tok::kLParen, "after 'for'");
      if (!At(Tok::kSemi)) {
        if (AtTypeStart()) {
          s->init = ParseDeclStmt();  // consumes ';'
        } else {
          Stmt* e = prog_->NewStmt(StmtKind::kExpr, Cur().loc);
          e->expr = ParseExpr();
          s->init = e;
          Expect(Tok::kSemi, "after for-init");
        }
      } else {
        Advance();
      }
      if (!At(Tok::kSemi)) {
        s->cond = ParseExpr();
      }
      Expect(Tok::kSemi, "after for-condition");
      if (!At(Tok::kRParen)) {
        s->step = ParseExpr();
      }
      Expect(Tok::kRParen, "after for-step");
      s->then_stmt = ParseStmt();
      return s;
    }
    case Tok::kKwReturn: {
      Advance();
      Stmt* s = prog_->NewStmt(StmtKind::kReturn, loc);
      if (!At(Tok::kSemi)) {
        s->expr = ParseExpr();
      }
      Expect(Tok::kSemi, "after return");
      return s;
    }
    case Tok::kKwBreak: {
      Advance();
      Expect(Tok::kSemi, "after break");
      return prog_->NewStmt(StmtKind::kBreak, loc);
    }
    case Tok::kKwContinue: {
      Advance();
      Expect(Tok::kSemi, "after continue");
      return prog_->NewStmt(StmtKind::kContinue, loc);
    }
    default: {
      if (AtTypeStart()) {
        return ParseDeclStmt();
      }
      Stmt* s = prog_->NewStmt(StmtKind::kExpr, loc);
      s->expr = ParseExpr();
      Expect(Tok::kSemi, "after expression");
      return s;
    }
  }
}

Expr* Parser::ParseExpr() { return ParseAssign(); }

Expr* Parser::ParseAssign() {
  Expr* lhs = ParseCond();
  BinOp op = BinOp::kNone;
  switch (Cur().kind) {
    case Tok::kAssign:
      op = BinOp::kNone;
      break;
    case Tok::kPlusEq:
      op = BinOp::kAdd;
      break;
    case Tok::kMinusEq:
      op = BinOp::kSub;
      break;
    case Tok::kStarEq:
      op = BinOp::kMul;
      break;
    case Tok::kSlashEq:
      op = BinOp::kDiv;
      break;
    case Tok::kPercentEq:
      op = BinOp::kRem;
      break;
    case Tok::kAmpEq:
      op = BinOp::kBitAnd;
      break;
    case Tok::kPipeEq:
      op = BinOp::kBitOr;
      break;
    case Tok::kCaretEq:
      op = BinOp::kBitXor;
      break;
    case Tok::kShlEq:
      op = BinOp::kShl;
      break;
    case Tok::kShrEq:
      op = BinOp::kShr;
      break;
    default:
      return lhs;
  }
  SourceLoc loc = Cur().loc;
  Advance();
  Expr* rhs = ParseAssign();
  Expr* e = prog_->NewExpr(ExprKind::kAssign, loc);
  e->a = lhs;
  e->b = rhs;
  e->assign_op = op;
  return e;
}

Expr* Parser::ParseCond() {
  Expr* cond = ParseBinary(1);
  if (!At(Tok::kQuestion)) {
    return cond;
  }
  SourceLoc loc = Cur().loc;
  Advance();
  Expr* e = prog_->NewExpr(ExprKind::kCond, loc);
  e->a = cond;
  e->b = ParseExpr();
  Expect(Tok::kColon, "in conditional expression");
  e->c = ParseCond();
  return e;
}

namespace {

// Binary operator precedence; higher binds tighter. 0 = not a binary op.
int BinPrec(Tok t) {
  switch (t) {
    case Tok::kPipePipe:
      return 1;
    case Tok::kAmpAmp:
      return 2;
    case Tok::kPipe:
      return 3;
    case Tok::kCaret:
      return 4;
    case Tok::kAmp:
      return 5;
    case Tok::kEqEq:
    case Tok::kBangEq:
      return 6;
    case Tok::kLess:
    case Tok::kGreater:
    case Tok::kLessEq:
    case Tok::kGreaterEq:
      return 7;
    case Tok::kShl:
    case Tok::kShr:
      return 8;
    case Tok::kPlus:
    case Tok::kMinus:
      return 9;
    case Tok::kStar:
    case Tok::kSlash:
    case Tok::kPercent:
      return 10;
    default:
      return 0;
  }
}

BinOp TokToBinOp(Tok t) {
  switch (t) {
    case Tok::kPipePipe:
      return BinOp::kLogOr;
    case Tok::kAmpAmp:
      return BinOp::kLogAnd;
    case Tok::kPipe:
      return BinOp::kBitOr;
    case Tok::kCaret:
      return BinOp::kBitXor;
    case Tok::kAmp:
      return BinOp::kBitAnd;
    case Tok::kEqEq:
      return BinOp::kEq;
    case Tok::kBangEq:
      return BinOp::kNe;
    case Tok::kLess:
      return BinOp::kLt;
    case Tok::kGreater:
      return BinOp::kGt;
    case Tok::kLessEq:
      return BinOp::kLe;
    case Tok::kGreaterEq:
      return BinOp::kGe;
    case Tok::kShl:
      return BinOp::kShl;
    case Tok::kShr:
      return BinOp::kShr;
    case Tok::kPlus:
      return BinOp::kAdd;
    case Tok::kMinus:
      return BinOp::kSub;
    case Tok::kStar:
      return BinOp::kMul;
    case Tok::kSlash:
      return BinOp::kDiv;
    case Tok::kPercent:
      return BinOp::kRem;
    default:
      return BinOp::kNone;
  }
}

}  // namespace

Expr* Parser::ParseBinary(int min_prec) {
  Expr* lhs = ParseUnary();
  for (;;) {
    int prec = BinPrec(Cur().kind);
    if (prec < min_prec || prec == 0) {
      return lhs;
    }
    BinOp op = TokToBinOp(Cur().kind);
    SourceLoc loc = Cur().loc;
    Advance();
    Expr* rhs = ParseBinary(prec + 1);
    Expr* e = prog_->NewExpr(ExprKind::kBinary, loc);
    e->bin_op = op;
    e->a = lhs;
    e->b = rhs;
    lhs = e;
  }
}

Expr* Parser::ParseUnary() {
  SourceLoc loc = Cur().loc;
  switch (Cur().kind) {
    case Tok::kMinus: {
      Advance();
      Expr* e = prog_->NewExpr(ExprKind::kUnary, loc);
      e->un_op = UnOp::kNeg;
      e->a = ParseUnary();
      return e;
    }
    case Tok::kBang: {
      Advance();
      Expr* e = prog_->NewExpr(ExprKind::kUnary, loc);
      e->un_op = UnOp::kLogNot;
      e->a = ParseUnary();
      return e;
    }
    case Tok::kTilde: {
      Advance();
      Expr* e = prog_->NewExpr(ExprKind::kUnary, loc);
      e->un_op = UnOp::kBitNot;
      e->a = ParseUnary();
      return e;
    }
    case Tok::kStar: {
      Advance();
      Expr* e = prog_->NewExpr(ExprKind::kDeref, loc);
      e->a = ParseUnary();
      return e;
    }
    case Tok::kAmp: {
      Advance();
      Expr* e = prog_->NewExpr(ExprKind::kAddrOf, loc);
      e->a = ParseUnary();
      return e;
    }
    case Tok::kPlusPlus:
    case Tok::kMinusMinus: {
      bool inc = At(Tok::kPlusPlus);
      Advance();
      Expr* e = prog_->NewExpr(ExprKind::kIncDec, loc);
      e->is_inc = inc;
      e->is_prefix = true;
      e->a = ParseUnary();
      return e;
    }
    case Tok::kKwSizeof: {
      Advance();
      Expr* e = prog_->NewExpr(ExprKind::kSizeof, loc);
      Expect(Tok::kLParen, "after sizeof");
      if (AtTypeStart()) {
        e->cast_type = ParseType();
      } else {
        e->a = ParseExpr();
      }
      Expect(Tok::kRParen, "after sizeof operand");
      return e;
    }
    case Tok::kLParen: {
      // Cast if '(' is followed by a type start.
      if (BinPrec(Ahead(1).kind) == 0 || Ahead(1).kind == Tok::kStar) {
        // fallthrough to the generic check below
      }
      if (Ahead(1).kind == Tok::kKwInt || Ahead(1).kind == Tok::kKwChar ||
          Ahead(1).kind == Tok::kKwVoid || Ahead(1).kind == Tok::kKwStruct ||
          Ahead(1).kind == Tok::kKwUnion || Ahead(1).kind == Tok::kKwConst ||
          (Ahead(1).kind == Tok::kIdent && prog_->typedefs.count(Ahead(1).text) > 0)) {
        Advance();  // '('
        Expr* e = prog_->NewExpr(ExprKind::kCast, loc);
        e->cast_type = ParseType();
        Expect(Tok::kRParen, "after cast type");
        e->a = ParseUnary();
        return e;
      }
      return ParsePostfix(ParsePrimary());
    }
    default:
      return ParsePostfix(ParsePrimary());
  }
}

Expr* Parser::ParsePostfix(Expr* base) {
  for (;;) {
    SourceLoc loc = Cur().loc;
    switch (Cur().kind) {
      case Tok::kLParen: {
        Advance();
        Expr* call = prog_->NewExpr(ExprKind::kCall, loc);
        call->a = base;
        if (!At(Tok::kRParen)) {
          std::vector<Expr*> args;
          do {
            args.push_back(ParseAssign());
          } while (Accept(Tok::kComma));
          call->args = prog_->MakeExprList(args);
        }
        Expect(Tok::kRParen, "after call arguments");
        base = call;
        break;
      }
      case Tok::kLBracket: {
        Advance();
        Expr* idx = prog_->NewExpr(ExprKind::kIndex, loc);
        idx->a = base;
        idx->b = ParseExpr();
        Expect(Tok::kRBracket, "after index");
        base = idx;
        break;
      }
      case Tok::kDot:
      case Tok::kArrow: {
        bool arrow = At(Tok::kArrow);
        Advance();
        Expr* mem = prog_->NewExpr(ExprKind::kMember, loc);
        mem->a = base;
        mem->is_arrow = arrow;
        if (AtIdentLike()) {
          SetStr(mem, Cur().text);
          Advance();
        } else {
          diags_->Error(Cur().loc, "expected member name", "parse");
        }
        base = mem;
        break;
      }
      case Tok::kPlusPlus:
      case Tok::kMinusMinus: {
        Expr* e = prog_->NewExpr(ExprKind::kIncDec, loc);
        e->is_inc = At(Tok::kPlusPlus);
        e->is_prefix = false;
        e->a = base;
        Advance();
        base = e;
        break;
      }
      default:
        return base;
    }
  }
}

Expr* Parser::ParsePrimary() {
  SourceLoc loc = Cur().loc;
  switch (Cur().kind) {
    case Tok::kIntLit: {
      Expr* e = prog_->NewExpr(ExprKind::kIntLit, loc);
      e->int_val = Cur().int_val;
      Advance();
      return e;
    }
    case Tok::kCharLit: {
      Expr* e = prog_->NewExpr(ExprKind::kIntLit, loc);
      e->int_val = Cur().int_val;
      Advance();
      return e;
    }
    case Tok::kStrLit: {
      Expr* e = prog_->NewExpr(ExprKind::kStrLit, loc);
      SetStr(e, Cur().text);
      Advance();
      return e;
    }
    case Tok::kKwNull: {
      Advance();
      return prog_->NewExpr(ExprKind::kNull, loc);
    }
    case Tok::kIdent: {
      Expr* e = prog_->NewExpr(ExprKind::kIdent, loc);
      SetStr(e, Cur().text);
      Advance();
      return e;
    }
    case Tok::kLParen: {
      Advance();
      Expr* e = ParseExpr();
      Expect(Tok::kRParen, "after parenthesized expression");
      return e;
    }
    default: {
      diags_->Error(loc, std::string("expected expression, found ") + TokName(Cur().kind),
                    "parse");
      Advance();
      return prog_->NewExpr(ExprKind::kIntLit, loc);
    }
  }
}

bool Parser::EvalConstInt(Expr* e, int64_t* out) const {
  if (e == nullptr) {
    return false;
  }
  switch (e->kind) {
    case ExprKind::kIntLit:
      *out = e->int_val;
      return true;
    case ExprKind::kIdent: {
      auto it = prog_->enum_consts.find(e->str_val);
      if (it != prog_->enum_consts.end()) {
        *out = it->second;
        return true;
      }
      return false;
    }
    case ExprKind::kUnary: {
      int64_t v = 0;
      if (!EvalConstInt(e->a, &v)) {
        return false;
      }
      switch (e->un_op) {
        case UnOp::kNeg:
          *out = -v;
          return true;
        case UnOp::kLogNot:
          *out = v == 0 ? 1 : 0;
          return true;
        case UnOp::kBitNot:
          *out = ~v;
          return true;
      }
      return false;
    }
    case ExprKind::kBinary: {
      int64_t a = 0;
      int64_t b = 0;
      if (!EvalConstInt(e->a, &a) || !EvalConstInt(e->b, &b)) {
        return false;
      }
      switch (e->bin_op) {
        case BinOp::kAdd:
          *out = a + b;
          return true;
        case BinOp::kSub:
          *out = a - b;
          return true;
        case BinOp::kMul:
          *out = a * b;
          return true;
        case BinOp::kDiv:
          if (b == 0) {
            return false;
          }
          *out = a / b;
          return true;
        case BinOp::kShl:
          *out = a << b;
          return true;
        case BinOp::kShr:
          *out = a >> b;
          return true;
        case BinOp::kBitOr:
          *out = a | b;
          return true;
        case BinOp::kBitAnd:
          *out = a & b;
          return true;
        default:
          return false;
      }
    }
    default:
      return false;
  }
}

}  // namespace ivy
