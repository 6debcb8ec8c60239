#pragma once
// Per-file source model for the lint library: on top of the raw token
// stream (lexer.hpp) this derives
//
//   * a suppression index — `iofa-lint: allow(<rule>)` tags parsed out
//     of Comment tokens only, exact rule-name match, honoured on the
//     finding's line or on a comment-only line directly above it;
//   * a brace scope tree classifying namespace / class / enum /
//     function / lambda / plain-block scopes, with class names and
//     qualified function names recovered from the scope headers;
//   * class models (mutex members, IOFA_GUARDED_BY presence,
//     IOFA_ACQUIRED_BEFORE/AFTER ordering declarations);
//   * function models: locks acquired via iofa::MutexLock/UniqueLock
//     RAII scopes in source order, each with the set of locks already
//     held at that point, IOFA_REQUIRES entry locks, and the calls
//     made while holding at least one lock — the raw material for the
//     whole-program lock-order analysis.
//
// Everything here is a heuristic over tokens, not a compiler: the
// model is deliberately conservative and deterministic, and rules
// layered on it must tolerate unparsable corners (they see an empty
// model, never a crash).

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/token.hpp"

namespace iofa::lint {

/// Scope kinds recovered from the tokens preceding each '{'.
enum class ScopeKind {
  kBlock,      ///< control-flow block, init list, anything unclassified
  kNamespace,
  kClass,      ///< class / struct / union definition
  kEnum,
  kFunction,   ///< function or method body
  kLambda,     ///< lambda body: runs later, held locks do NOT propagate in
};

struct Scope {
  ScopeKind kind = ScopeKind::kBlock;
  std::string name;        ///< class name or function display name
  int parent = -1;         ///< index into ScopeTree::scopes, -1 for root
  std::size_t open_line = 0;
};

/// One mutex member declared in a class.
struct MutexMember {
  std::string name;
  std::size_t line = 0;
  /// Lock names (canonical) this one is declared IOFA_ACQUIRED_BEFORE.
  std::vector<std::string> acquired_before;
  /// Lock names (canonical) this one is declared IOFA_ACQUIRED_AFTER.
  std::vector<std::string> acquired_after;
};

struct ClassModel {
  std::string name;
  bool has_guarded = false;  ///< any IOFA_GUARDED_BY / IOFA_PT_GUARDED_BY
  std::vector<MutexMember> mutex_members;
};

/// One RAII lock acquisition (MutexLock / UniqueLock statement).
struct LockAcquisition {
  std::string lock;               ///< canonical lock name
  std::size_t line = 0;
  std::vector<std::string> held;  ///< locks already held (file-local view)
  /// Acquired inside a lambda body: the lambda runs on its own thread
  /// later, so IOFA_REQUIRES entry locks and caller-held locks are not
  /// propagated into it.
  bool in_lambda = false;
};

/// A call made while at least one lock is held, lexically or through
/// the enclosing function's IOFA_REQUIRES contract.
struct HeldCall {
  std::string callee;             ///< base (unqualified) callee name
  std::size_t line = 0;
  std::vector<std::string> held;  ///< locks lexically held at the call
  /// Made inside a lambda body, which does not inherit entry locks.
  bool in_lambda = false;
};

struct FunctionModel {
  std::string display;   ///< e.g. "Registry::counter" or "f1"
  std::string base;      ///< unqualified name, e.g. "counter"
  std::string cls;       ///< enclosing class ("" for free functions)
  std::vector<std::string> entry_locks;  ///< canonical IOFA_REQUIRES locks
  std::vector<LockAcquisition> locks;
  std::vector<HeldCall> calls;
};

/// An IOFA_REQUIRES annotation attached to a declaration (usually in a
/// header); definitions found elsewhere are seeded with these locks.
struct RequiresAnnotation {
  std::string qualified;  ///< "Cls::name" or "name"
  std::vector<std::string> locks;  ///< canonical lock names
};

class FileModel {
 public:
  /// Build the model. `path` should be the path as the user gave it
  /// (used for reporting and path-scoped rules).
  FileModel(std::string path, TokenStream tokens);

  const std::string& path() const { return path_; }
  const TokenStream& tokens() const { return tokens_; }
  /// Indices into tokens() of code tokens (comments/directives skipped).
  const std::vector<std::size_t>& code() const { return code_; }

  /// True when `rule` is suppressed at `line` — by an allow tag in a
  /// comment on that line, or in a comment-only line directly above.
  bool suppressed(std::size_t line, const std::string& rule) const;

  const std::vector<ClassModel>& classes() const { return classes_; }
  const std::vector<FunctionModel>& functions() const { return functions_; }
  const std::vector<RequiresAnnotation>& annotations() const {
    return annotations_;
  }

  /// True when the path contains the given component (substring match,
  /// generic separators assumed).
  bool in_path(std::string_view needle) const;
  bool has_extension(std::string_view ext) const;

 private:
  void index_comments();
  void build_structure();

  std::string path_;
  TokenStream tokens_;
  std::vector<std::size_t> code_;
  std::map<std::size_t, std::set<std::string>> allows_;  ///< line -> rules
  std::set<std::size_t> code_lines_;
  std::vector<ClassModel> classes_;
  std::vector<FunctionModel> functions_;
  std::vector<RequiresAnnotation> annotations_;
};

/// Canonicalize a lock expression (token texts already joined):
/// `this->x` -> `x`, `a->b` -> `a.b`, then prefix with `cls::` when a
/// class context is known. Exposed for rules that synthesize names.
std::string canonical_lock(const std::string& expr, const std::string& cls);

}  // namespace iofa::lint
