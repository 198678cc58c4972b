// Recursive-descent parser for the fsdep C subset. Consumes the
// preprocessed token stream and builds a TranslationUnit.
//
// Error handling: the parser reports diagnostics and synchronizes at the
// next ';' or '}' so one bad declaration does not abort the whole file.
// Nesting deeper than kMaxNestingDepth is the one error that stops the
// parse: it is reported once, as "nesting exceeds N", instead of
// overflowing the stack.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_set>
#include <vector>

#include "ast/ast.h"
#include "lex/token.h"
#include "support/diagnostics.h"

namespace fsdep::ast {

/// Deepest nesting of statements and expressions the parser accepts:
/// each nested statement, parenthesized or bracketed expression, call
/// argument, initializer, unary operand, cast, assignment right-hand
/// side and chained conditional is one level. Later passes over the AST
/// (sema, CFG, IR lowering, taint) recurse on it and rely on this bound.
inline constexpr std::size_t kMaxNestingDepth = 256;

class Parser {
 public:
  Parser(std::vector<lex::Token> tokens, DiagnosticEngine& diags);

  /// Parses a whole translation unit. Check `diags` for errors afterwards.
  std::unique_ptr<TranslationUnit> parseTranslationUnit(std::string name);

 private:
  // Token stream helpers.
  [[nodiscard]] const lex::Token& peek(std::size_t ahead = 0) const;
  const lex::Token& advance();
  [[nodiscard]] bool check(lex::TokenKind kind) const { return peek().kind == kind; }
  bool match(lex::TokenKind kind);
  const lex::Token& expect(lex::TokenKind kind, const char* context);
  void synchronize();

  // Type parsing.
  [[nodiscard]] bool startsType() const;
  TypeSpec parseTypeSpec();
  void parseDeclaratorSuffix(TypeSpec& type);

  // Declarations.
  DeclPtr parseTopLevelDecl();
  DeclPtr parseRecordDecl(SourceLoc loc);
  DeclPtr parseEnumDecl(SourceLoc loc);
  DeclPtr parseTypedefDecl(SourceLoc loc);
  DeclPtr parseFunctionOrVarDecl(bool is_static);
  NodePtr<VarDecl> parseParamDecl();

  // Statements.
  StmtPtr parseStmt();
  StmtPtr parseCompoundStmt();
  StmtPtr parseIfStmt();
  StmtPtr parseWhileStmt();
  StmtPtr parseDoWhileStmt();
  StmtPtr parseForStmt();
  StmtPtr parseSwitchStmt();
  StmtPtr parseReturnStmt();
  NodePtr<DeclStmt> parseDeclStmt();

  // Expressions (precedence climbing).
  ExprPtr parseExpr();
  ExprPtr parseAssignment();
  ExprPtr parseConditional();
  ExprPtr parseBinary(int min_precedence);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  /// One nesting level for its lifetime; throws past kMaxNestingDepth
  /// (parseTranslationUnit reports it).
  class NestingGuard;

  /// Allocates a node in the arena of the unit being parsed.
  template <typename T, typename... Args>
  NodePtr<T> node(Args&&... args) {
    return tu_->make<T>(std::forward<Args>(args)...);
  }

  std::vector<lex::Token> tokens_;
  std::size_t pos_ = 0;
  DiagnosticEngine& diags_;
  std::unordered_set<std::string> typedef_names_;
  lex::Token eof_;
  TranslationUnit* tu_ = nullptr;  ///< unit under construction (node arena)
  std::size_t depth_ = 0;          ///< current nesting level
};

}  // namespace fsdep::ast
