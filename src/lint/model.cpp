#include "lint/model.hpp"

#include <algorithm>

namespace iofa::lint {
namespace {

bool is_control_keyword(const std::string& t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "catch" || t == "do" || t == "else" || t == "return";
}

bool is_annotation_macro(const std::string& t) {
  return t.rfind("IOFA_", 0) == 0;
}

bool is_raii_lock_type(const std::string& t) {
  return t == "MutexLock" || t == "UniqueLock" || t == "lock_guard" ||
         t == "scoped_lock" || t == "unique_lock";
}

/// Tokens that can appear in a trailing return type / declarator and
/// are skipped by the backwards scope classifier.
bool is_type_ish(const Token& t) {
  if (t.kind == TokenKind::kIdentifier) return true;
  if (t.kind == TokenKind::kString || t.kind == TokenKind::kCharLit ||
      t.kind == TokenKind::kNumber) {
    return true;
  }
  if (t.kind != TokenKind::kPunct) return false;
  const std::string& x = t.text;
  return x == "::" || x == "<" || x == ">" || x == "*" || x == "&" ||
         x == "&&" || x == "," || x == ":" || x == "->" || x == "..." ||
         x == "[" || x == "]";
}

bool is_qualifier(const std::string& t) {
  return t == "const" || t == "noexcept" || t == "override" ||
         t == "final" || t == "mutable" || t == "try" || t == "constexpr";
}

}  // namespace

std::string canonical_lock(const std::string& expr, const std::string& cls) {
  std::string e = expr;
  if (e.rfind("this.", 0) == 0) e = e.substr(5);
  if (cls.empty()) return e;
  return cls + "::" + e;
}

FileModel::FileModel(std::string path, TokenStream tokens)
    : path_(std::move(path)), tokens_(std::move(tokens)) {
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    const TokenKind k = tokens_[i].kind;
    if (k == TokenKind::kComment) continue;
    if (k == TokenKind::kDirective) continue;
    code_.push_back(i);
    code_lines_.insert(tokens_[i].line);
  }
  index_comments();
  build_structure();
}

bool FileModel::in_path(std::string_view needle) const {
  return path_.find(needle) != std::string::npos;
}

bool FileModel::has_extension(std::string_view ext) const {
  return path_.size() >= ext.size() &&
         path_.compare(path_.size() - ext.size(), ext.size(), ext) == 0;
}

void FileModel::index_comments() {
  for (const Token& t : tokens_) {
    if (t.kind != TokenKind::kComment) continue;
    // Parse every `iofa-lint: allow(name[, name...])` occurrence.
    const std::string& text = t.text;
    std::size_t pos = 0;
    while ((pos = text.find("iofa-lint:", pos)) != std::string::npos) {
      pos += 10;
      std::size_t a = text.find("allow(", pos);
      if (a == std::string::npos) break;
      a += 6;
      const std::size_t close = text.find(')', a);
      if (close == std::string::npos) break;
      std::string names = text.substr(a, close - a);
      std::size_t start = 0;
      while (start <= names.size()) {
        std::size_t comma = names.find(',', start);
        std::string one = names.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        // trim
        const auto b = one.find_first_not_of(" \t");
        const auto e = one.find_last_not_of(" \t");
        if (b != std::string::npos) {
          allows_[t.line].insert(one.substr(b, e - b + 1));
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      pos = close;
    }
  }
}

bool FileModel::suppressed(std::size_t line, const std::string& rule) const {
  auto it = allows_.find(line);
  if (it != allows_.end() && it->second.count(rule)) return true;
  // A comment-only line directly above also suppresses (wrapped
  // statements carry the tag on the line before the construct).
  if (line > 1) {
    it = allows_.find(line - 1);
    if (it != allows_.end() && it->second.count(rule) &&
        !code_lines_.count(line - 1)) {
      return true;
    }
  }
  return false;
}

namespace {

/// Walking state for build_structure: one entry per open brace scope.
struct ActiveScope {
  ScopeKind kind = ScopeKind::kBlock;
  std::string name;             ///< class name when kind == kClass
  int class_model = -1;         ///< index into classes_ for kClass
  int function_model = -1;      ///< index into functions_ for kFunction
  int paren_depth_at_open = 0;
  std::vector<std::string> locks;  ///< locks acquired directly in this scope
};

}  // namespace

void FileModel::build_structure() {
  const std::vector<std::size_t>& c = code_;
  const std::size_t n = c.size();
  auto tok = [&](std::size_t ci) -> const Token& { return tokens_[c[ci]]; };

  std::vector<ActiveScope> stack;
  std::vector<std::size_t> header;  // code-token indices since last ; { }
  int paren_depth = 0;

  // ---- helpers over a header/statement token-index range -----------------

  auto match_paren_back = [&](const std::vector<std::size_t>& v,
                              std::size_t close) -> std::size_t {
    // v[close] is ')'; returns index of the matching '(' or npos.
    int depth = 0;
    for (std::size_t j = close + 1; j-- > 0;) {
      const Token& t = tokens_[v[j]];
      if (t.is_punct(")")) ++depth;
      if (t.is_punct("(")) {
        if (--depth == 0) return j;
      }
    }
    return static_cast<std::size_t>(-1);
  };

  auto innermost_class = [&]() -> std::string {
    for (std::size_t j = stack.size(); j-- > 0;) {
      if (stack[j].kind == ScopeKind::kClass) return stack[j].name;
      if (stack[j].kind == ScopeKind::kFunction ||
          stack[j].kind == ScopeKind::kLambda) {
        break;  // a class around the function does not qualify its locals
      }
    }
    return {};
  };

  auto current_function = [&]() -> FunctionModel* {
    for (std::size_t j = stack.size(); j-- > 0;) {
      if (stack[j].kind == ScopeKind::kFunction &&
          stack[j].function_model >= 0) {
        return &functions_[static_cast<std::size_t>(stack[j].function_model)];
      }
    }
    return nullptr;
  };

  auto in_lambda = [&]() -> bool {
    for (std::size_t j = stack.size(); j-- > 0;) {
      if (stack[j].kind == ScopeKind::kLambda) return true;
      if (stack[j].kind == ScopeKind::kFunction) return false;
    }
    return false;
  };

  auto held_locks = [&]() -> std::vector<std::string> {
    // Innermost-out until (and including) the function or lambda
    // boundary: a lambda body runs later, on another thread's stack.
    std::vector<std::string> held;
    for (std::size_t j = stack.size(); j-- > 0;) {
      const ActiveScope& sc = stack[j];
      for (const auto& l : sc.locks) held.push_back(l);
      if (sc.kind == ScopeKind::kFunction || sc.kind == ScopeKind::kLambda ||
          sc.kind == ScopeKind::kClass || sc.kind == ScopeKind::kNamespace) {
        break;
      }
    }
    std::reverse(held.begin(), held.end());
    return held;
  };

  /// Render expression tokens v[b..e) as a canonical-ish string.
  auto render_expr = [&](const std::vector<std::size_t>& v, std::size_t b,
                         std::size_t e) -> std::string {
    std::string out;
    for (std::size_t j = b; j < e; ++j) {
      const Token& t = tokens_[v[j]];
      if (t.is_punct("->")) {
        out += ".";
      } else {
        out += t.text;
      }
    }
    return out;
  };

  /// Extract `IOFA_REQUIRES(a, b)` lock expressions from a range.
  auto extract_requires = [&](const std::vector<std::size_t>& v,
                              const std::string& cls)
      -> std::vector<std::string> {
    std::vector<std::string> locks;
    for (std::size_t j = 0; j + 1 < v.size(); ++j) {
      if (!tokens_[v[j]].is_ident("IOFA_REQUIRES") ||
          !tokens_[v[j + 1]].is_punct("(")) {
        continue;
      }
      int depth = 0;
      std::size_t start = j + 2;
      for (std::size_t k = j + 1; k < v.size(); ++k) {
        const Token& t = tokens_[v[k]];
        if (t.is_punct("(")) ++depth;
        if (t.is_punct(",") && depth == 1) {
          locks.push_back(canonical_lock(render_expr(v, start, k), cls));
          start = k + 1;
        }
        if (t.is_punct(")")) {
          if (--depth == 0) {
            if (k > start) {
              locks.push_back(canonical_lock(render_expr(v, start, k), cls));
            }
            break;
          }
        }
      }
    }
    return locks;
  };

  /// Classify the header of a '{' that just opened.
  struct Classified {
    ScopeKind kind = ScopeKind::kBlock;
    std::string name;  ///< class name or function display name
    std::string cls;   ///< function's class from a qualified name
  };
  auto classify = [&](const std::vector<std::size_t>& h) -> Classified {
    Classified out;
    if (h.empty()) return out;
    // enum (incl. `enum class`) first: v1 parity, and it must never be
    // mistaken for a class scope.
    for (std::size_t j : h) {
      if (tokens_[j].is_ident("enum")) {
        out.kind = ScopeKind::kEnum;
        return out;
      }
    }
    // Backwards scan from the brace.
    std::size_t j = h.size();
    while (j > 0) {
      const Token& t = tokens_[h[j - 1]];
      if (t.kind == TokenKind::kIdentifier) {
        if (t.text == "namespace") {
          out.kind = ScopeKind::kNamespace;
          return out;
        }
        if (t.text == "class" || t.text == "struct" || t.text == "union") {
          out.kind = ScopeKind::kClass;
          // Name: last plain identifier after the keyword, outside
          // paren groups, before a level-0 ':' base clause.
          int depth = 0;
          for (std::size_t k = j; k < h.size(); ++k) {
            const Token& u = tokens_[h[k]];
            if (u.is_punct("(")) ++depth;
            if (u.is_punct(")")) --depth;
            if (depth > 0) continue;
            if (u.is_punct(":")) break;
            if (u.kind == TokenKind::kIdentifier && u.text != "final" &&
                u.text != "alignas" && !is_annotation_macro(u.text)) {
              out.name = u.text;
            }
          }
          return out;
        }
        if (is_control_keyword(t.text)) return out;  // kBlock
        if (is_qualifier(t.text)) {
          --j;
          continue;
        }
        --j;  // type-ish identifier (trailing return, declarator)
        continue;
      }
      if (t.is_punct(")")) {
        const std::size_t open = match_paren_back(h, j - 1);
        if (open == static_cast<std::size_t>(-1)) return out;
        if (open > 0) {
          const Token& before = tokens_[h[open - 1]];
          if (before.kind == TokenKind::kIdentifier &&
              is_annotation_macro(before.text)) {
            j = open - 1;  // skip the annotation group, keep scanning
            continue;
          }
          if (before.is_punct("]")) {
            out.kind = ScopeKind::kLambda;
            return out;
          }
          if (before.kind == TokenKind::kIdentifier &&
              is_control_keyword(before.text)) {
            return out;  // if/for/while/... block
          }
        }
        // Parameter list of a function definition. Recover the name
        // from the identifier chain just before the FIRST level-0 '('.
        out.kind = ScopeKind::kFunction;
        int depth = 0;
        std::size_t first_open = static_cast<std::size_t>(-1);
        for (std::size_t k = 0; k < h.size(); ++k) {
          const Token& u = tokens_[h[k]];
          if (u.is_punct("(")) {
            if (depth == 0) {
              // Skip annotation-macro groups like IOFA_CAPABILITY(...).
              if (k > 0 &&
                  tokens_[h[k - 1]].kind == TokenKind::kIdentifier &&
                  is_annotation_macro(tokens_[h[k - 1]].text)) {
                ++depth;
                continue;
              }
              first_open = k;
              break;
            }
            ++depth;
          } else if (u.is_punct(")")) {
            --depth;
          }
        }
        if (first_open != static_cast<std::size_t>(-1)) {
          std::vector<std::string> chain;
          for (std::size_t k = first_open; k-- > 0;) {
            const Token& u = tokens_[h[k]];
            if (u.kind == TokenKind::kIdentifier || u.is_punct("::") ||
                u.is_punct("~")) {
              chain.push_back(u.text);
            } else {
              break;
            }
          }
          std::reverse(chain.begin(), chain.end());
          while (!chain.empty() && chain.front() == "::") {
            chain.erase(chain.begin());
          }
          std::string display;
          for (const auto& part : chain) display += part;
          out.name = display;
          // "A::B::f" -> cls "B" (innermost qualifier).
          if (chain.size() >= 3 && chain[chain.size() - 2] == "::") {
            out.cls = chain[chain.size() - 3];
          }
        }
        return out;
      }
      if (t.is_punct("]")) {
        // `[captures] {` — lambda with no parameter list; `arr[i] = {`
        // never ends with ']' directly before '{' in valid code.
        out.kind = ScopeKind::kLambda;
        return out;
      }
      if (t.is_punct("=") || t.is_punct("{") || t.is_punct(";")) {
        return out;  // init list / unclassifiable -> block
      }
      if (is_type_ish(t)) {
        --j;
        continue;
      }
      return out;
    }
    return out;
  };

  /// Process one statement (header tokens up to a level-0 ';').
  auto process_statement = [&](const std::vector<std::size_t>& st) {
    if (st.empty()) return;
    const bool in_class =
        !stack.empty() && stack.back().kind == ScopeKind::kClass;
    const Token& first = tokens_[st[0]];

    if (in_class) {
      ClassModel& cm =
          classes_[static_cast<std::size_t>(stack.back().class_model)];
      // Mutex member declaration:
      //   [access:] [mutable] [std::|iofa::] Mutex|mutex name (; | = | IOFA_...)
      // Access specifiers are not statement separators to the walk, so
      // `private: std::mutex mu_;` arrives as one statement here.
      std::size_t j = 0;
      while (j + 2 < st.size() &&
             (tokens_[st[j]].is_ident("public") ||
              tokens_[st[j]].is_ident("private") ||
              tokens_[st[j]].is_ident("protected")) &&
             tokens_[st[j + 1]].is_punct(":")) {
        j += 2;
      }
      if (tokens_[st[j]].is_ident("mutable") && st.size() > j + 1) ++j;
      if (j + 2 < st.size() &&
          (tokens_[st[j]].is_ident("std") || tokens_[st[j]].is_ident("iofa")) &&
          tokens_[st[j + 1]].is_punct("::")) {
        j += 2;
      }
      if (j + 1 < st.size() &&
          (tokens_[st[j]].is_ident("Mutex") ||
           tokens_[st[j]].is_ident("mutex")) &&
          tokens_[st[j + 1]].kind == TokenKind::kIdentifier) {
        const bool terminated =
            st.size() == j + 2 ||
            tokens_[st[j + 2]].is_punct("=") ||
            (tokens_[st[j + 2]].kind == TokenKind::kIdentifier &&
             is_annotation_macro(tokens_[st[j + 2]].text));
        if (terminated) {
          MutexMember m;
          m.name = tokens_[st[j + 1]].text;
          m.line = tokens_[st[j]].line;
          // IOFA_ACQUIRED_BEFORE/AFTER(...) on the declaration.
          const std::string cls = cm.name;
          for (std::size_t k = j + 2; k + 1 < st.size(); ++k) {
            const Token& t = tokens_[st[k]];
            const bool before = t.is_ident("IOFA_ACQUIRED_BEFORE");
            const bool after = t.is_ident("IOFA_ACQUIRED_AFTER");
            if ((!before && !after) || !tokens_[st[k + 1]].is_punct("(")) {
              continue;
            }
            int depth = 0;
            std::size_t start = k + 2;
            for (std::size_t q = k + 1; q < st.size(); ++q) {
              const Token& u = tokens_[st[q]];
              if (u.is_punct("(")) ++depth;
              if (u.is_punct(",") && depth == 1) {
                auto name = canonical_lock(render_expr(st, start, q), cls);
                (before ? m.acquired_before : m.acquired_after)
                    .push_back(name);
                start = q + 1;
              }
              if (u.is_punct(")") && --depth == 0) {
                if (q > start) {
                  auto name = canonical_lock(render_expr(st, start, q), cls);
                  (before ? m.acquired_before : m.acquired_after)
                      .push_back(name);
                }
                break;
              }
            }
          }
          cm.mutex_members.push_back(std::move(m));
          return;
        }
      }
      // Method declaration carrying IOFA_REQUIRES: record it so the
      // out-of-line definition (another TU) is seeded with the locks.
      auto locks = extract_requires(st, cm.name);
      if (!locks.empty()) {
        int depth = 0;
        for (std::size_t k = 0; k + 1 < st.size(); ++k) {
          const Token& t = tokens_[st[k]];
          if (t.is_punct("(")) {
            if (depth == 0 && k > 0 &&
                tokens_[st[k - 1]].kind == TokenKind::kIdentifier &&
                !is_annotation_macro(tokens_[st[k - 1]].text)) {
              annotations_.push_back(
                  {cm.name + "::" + tokens_[st[k - 1]].text,
                   std::move(locks)});
              break;
            }
            ++depth;
          } else if (t.is_punct(")")) {
            --depth;
          }
        }
      }
      return;
    }

    // RAII lock acquisition in executable code:
    //   [std::|iofa::] MutexLock|UniqueLock|lock_guard|... [<...>] var (expr)
    FunctionModel* fn = current_function();
    if (!fn) return;
    std::size_t j = 0;
    if (j + 2 < st.size() &&
        (first.is_ident("std") || first.is_ident("iofa")) &&
        tokens_[st[j + 1]].is_punct("::")) {
      j += 2;
    }
    if (j >= st.size() ||
        tokens_[st[j]].kind != TokenKind::kIdentifier ||
        !is_raii_lock_type(tokens_[st[j]].text)) {
      return;
    }
    ++j;
    if (j < st.size() && tokens_[st[j]].is_punct("<")) {  // template args
      int depth = 0;
      while (j < st.size()) {
        if (tokens_[st[j]].is_punct("<")) ++depth;
        if (tokens_[st[j]].is_punct(">")) {
          --depth;
          ++j;
          if (depth == 0) break;
          continue;
        }
        ++j;
      }
    }
    if (j + 1 >= st.size() ||
        tokens_[st[j]].kind != TokenKind::kIdentifier ||
        !tokens_[st[j + 1]].is_punct("(")) {
      return;
    }
    const std::size_t line = tokens_[st[j]].line;
    // First constructor argument (up to a level-1 ',' or the close).
    int depth = 0;
    std::size_t start = j + 2, end = start;
    for (std::size_t k = j + 1; k < st.size(); ++k) {
      const Token& t = tokens_[st[k]];
      if (t.is_punct("(")) ++depth;
      if (t.is_punct(",") && depth == 1) {
        end = k;
        break;
      }
      if (t.is_punct(")") && --depth == 0) {
        end = k;
        break;
      }
    }
    if (end <= start) return;
    const std::string cls = fn->cls;
    LockAcquisition acq;
    acq.lock = canonical_lock(render_expr(st, start, end), cls);
    acq.line = line;
    acq.held = held_locks();
    acq.in_lambda = in_lambda();
    fn->locks.push_back(acq);
    if (!stack.empty()) stack.back().locks.push_back(acq.lock);
  };

  // ---- the walk ----------------------------------------------------------

  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = tok(i);
    if (t.is_punct("(")) {
      ++paren_depth;
      header.push_back(c[i]);
      continue;
    }
    if (t.is_punct(")")) {
      if (paren_depth > 0) --paren_depth;
      header.push_back(c[i]);
      continue;
    }
    if (t.is_punct("{")) {
      Classified cl = classify(header);
      ActiveScope sc;
      sc.kind = cl.kind;
      sc.name = cl.name;
      sc.paren_depth_at_open = paren_depth;
      if (cl.kind == ScopeKind::kClass) {
        ClassModel cm;
        cm.name = cl.name;
        classes_.push_back(std::move(cm));
        sc.class_model = static_cast<int>(classes_.size()) - 1;
      } else if (cl.kind == ScopeKind::kFunction) {
        FunctionModel fm;
        fm.display = cl.name;
        const auto sep = cl.name.rfind("::");
        fm.base = sep == std::string::npos ? cl.name : cl.name.substr(sep + 2);
        fm.cls = !cl.cls.empty() ? cl.cls : innermost_class();
        if (cl.cls.empty() && fm.display.find("::") == std::string::npos &&
            !fm.cls.empty()) {
          fm.display = fm.cls + "::" + fm.base;
        }
        fm.entry_locks = extract_requires(header, fm.cls);
        functions_.push_back(std::move(fm));
        sc.function_model = static_cast<int>(functions_.size()) - 1;
      }
      stack.push_back(std::move(sc));
      header.clear();
      continue;
    }
    if (t.is_punct("}")) {
      if (!stack.empty()) stack.pop_back();
      header.clear();
      continue;
    }
    if (t.is_punct(";") &&
        (stack.empty() ? paren_depth == 0
                       : paren_depth == stack.back().paren_depth_at_open)) {
      process_statement(header);
      header.clear();
      continue;
    }
    // Guarded-field detection for naked-mutex (innermost class scope).
    if (t.kind == TokenKind::kIdentifier &&
        (t.text == "IOFA_GUARDED_BY" || t.text == "IOFA_PT_GUARDED_BY") &&
        !stack.empty() && stack.back().kind == ScopeKind::kClass) {
      classes_[static_cast<std::size_t>(stack.back().class_model)]
          .has_guarded = true;
    }
    // Call collection: identifier followed by '('. Calls are kept even
    // with no lexical lock held: an IOFA_REQUIRES contract (often on a
    // declaration in another file) supplies the entry locks at
    // finalize. Member calls on other objects (obj.f(), p->f()) are
    // skipped: the
    // base name alone cannot identify the callee, and a misresolved
    // edge fabricates lock-order cycles.
    if (t.kind == TokenKind::kIdentifier && i + 1 < n &&
        tok(i + 1).is_punct("(") &&
        !(i > 0 && (tok(i - 1).is_punct(".") || tok(i - 1).is_punct("->"))) &&
        !is_control_keyword(t.text) &&
        !is_annotation_macro(t.text) && !is_raii_lock_type(t.text) &&
        t.text != "sizeof" && t.text != "alignof" && t.text != "alignas" &&
        t.text != "decltype" && t.text != "assert" &&
        t.text != "static_cast" && t.text != "dynamic_cast" &&
        t.text != "reinterpret_cast" && t.text != "const_cast") {
      if (FunctionModel* fn = current_function()) {
        fn->calls.push_back({t.text, t.line, held_locks(), in_lambda()});
      }
    }
    header.push_back(c[i]);
  }
}

}  // namespace iofa::lint
