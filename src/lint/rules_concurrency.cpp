#include "lint/rules_concurrency.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>

namespace iofa::lint {

// --- naked-mutex ----------------------------------------------------------

void NakedMutexRule::scan(const FileModel& f, Reporter& rep) {
  if (f.in_path("common/mutex.hpp") || f.in_path("common/annotations.hpp")) {
    return;
  }
  for (const ClassModel& cls : f.classes()) {
    if (cls.has_guarded) continue;
    for (const MutexMember& mm : cls.mutex_members) {
      rep.report(f, mm.line, "naked-mutex",
                 "class '" + cls.name + "' declares mutex member '" + mm.name +
                     "' but no IOFA_GUARDED_BY field; annotate what it "
                     "protects (common/annotations.hpp)");
    }
  }
}

// --- swallowed-error ------------------------------------------------------

namespace {

/// Skip a balanced ( ... ) group starting at code index ci (which must
/// be the '('). Returns the code index just past the ')'.
std::size_t skip_paren_group(const FileModel& f, std::size_t ci) {
  int depth = 0;
  const auto& code = f.code();
  while (ci < code.size()) {
    const Token& t = f.tokens()[code[ci]];
    if (t.is_punct("(")) ++depth;
    if (t.is_punct(")")) {
      --depth;
      if (depth == 0) return ci + 1;
    }
    ++ci;
  }
  return ci;
}

bool is_pool_receiver(const std::string& name) {
  // ThreadPool::submit returns a future, not an error code; a
  // pool-named receiver is task fan-out, not a forwarding offer.
  const std::string base =
      name.size() > 1 && name.back() == '_' ? name.substr(0, name.size() - 1)
                                            : name;
  return base.size() >= 4 && base.compare(base.size() - 4, 4, "pool") == 0;
}

/// Match a discarded failable call at statement position: a chain of
/// simple receivers (obj. / obj-> / ns:: / obj(arg).) ending in a
/// failable call. Guarded uses — `if (...)`, `ok = ...`, `return ...` —
/// do not start the statement with the chain and never match.
bool swallowed_call_at(const FileModel& f, std::size_t start) {
  static const std::set<std::string> kTargets = {"try_submit", "try_push",
                                                 "try_acquire", "submit"};
  std::size_t i = start;
  std::string prev_name;
  bool prev_dotted = false;  // separator before current element was . or ->
  bool have_prev = false;
  for (;;) {
    const Token* t = code_tok(f, i);
    if (!t || t->kind != TokenKind::kIdentifier) return false;
    const Token* nxt = code_tok(f, i + 1);
    const bool has_call = nxt && nxt->is_punct("(");
    if (has_call && kTargets.count(t->text)) {
      // Pool carve-out: pool.submit(...) / pool_->try_submit(...).
      if (have_prev && prev_dotted && is_pool_receiver(prev_name)) {
        return false;
      }
      return true;
    }
    if (has_call && t->text == "write" && have_prev && prev_dotted &&
        (prev_name == "pfs_" || prev_name == "pfs")) {
      return true;
    }
    std::size_t j = i + 1;
    if (has_call) j = skip_paren_group(f, j);
    const Token* sep = code_tok(f, j);
    if (!sep || !(sep->is_punct(".") || sep->is_punct("->") ||
                  sep->is_punct("::"))) {
      return false;
    }
    prev_name = t->text;
    prev_dotted = sep->is_punct(".") || sep->is_punct("->");
    have_prev = true;
    i = j + 1;
  }
}

}  // namespace

void SwallowedErrorRule::scan(const FileModel& f, Reporter& rep) {
  // Scope: the forwarding data path, where every refused or failed
  // request must land in an accounting bucket (fwd/overload.hpp).
  if (!f.in_path("src/fwd")) return;
  const auto& code = f.code();

  // catch (...) anywhere.
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (match_code_seq(f, i, {"catch", "(", "...", ")"})) {
      rep.report(f, f.tokens()[code[i]].line, "swallowed-error",
                 "catch (...) swallows errors on the forwarding path; catch "
                 "the concrete exception types and account the failure");
    }
  }

  // Discarded failable calls at statement position. Statement starts
  // follow `{`, `}`, a top-level `;` or `:` (labels, access specifiers,
  // ctor init lists — the false starts never look like a call chain).
  std::vector<int> scope_depths = {0};
  int paren_depth = 0;
  bool at_start = true;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    if (at_start && t.kind == TokenKind::kIdentifier &&
        swallowed_call_at(f, i)) {
      rep.report(f, t.line, "swallowed-error",
                 "failable call with its result discarded; check the "
                 "submit/acquire/write outcome so refused work is retried "
                 "or accounted, not dropped");
    }
    at_start = false;
    if (t.is_punct("(")) {
      ++paren_depth;
    } else if (t.is_punct(")")) {
      if (paren_depth > 0) --paren_depth;
    } else if (t.is_punct("{")) {
      scope_depths.push_back(paren_depth);
      at_start = true;
    } else if (t.is_punct("}")) {
      if (scope_depths.size() > 1) scope_depths.pop_back();
      paren_depth = scope_depths.back();
      at_start = true;
    } else if ((t.is_punct(";") || t.is_punct(":")) &&
               paren_depth == scope_depths.back()) {
      at_start = true;
    }
  }
}

// --- lock-order -----------------------------------------------------------

void LockOrderRule::scan(const FileModel& file, Reporter& rep) {
  (void)file;
  (void)rep;  // whole-program: everything happens in finalize()
}

void LockOrderRule::add_edge(const std::string& from, const std::string& to,
                             const std::string& file, std::size_t line,
                             const std::string& why) {
  if (from == to) return;  // same canonical lock: recursion, not order
  auto& slot = graph_[from];
  if (slot.count(to)) return;  // keep the first witness, deterministic
  graph_[to];                  // ensure the node exists
  slot[to] = Edge{file, line, why, false};
}

void LockOrderRule::finalize(const Program& prog, Reporter& rep) {
  // Whole-program IOFA_REQUIRES index: declarations (usually in the
  // header) seed entry locks into the out-of-line definitions.
  std::map<std::string, std::vector<std::string>> requires_locks;
  for (const auto& f : prog.files()) {
    for (const RequiresAnnotation& a : f->annotations()) {
      auto& locks = requires_locks[a.qualified];
      for (const auto& l : a.locks) {
        if (std::find(locks.begin(), locks.end(), l) == locks.end()) {
          locks.push_back(l);
        }
      }
    }
  }

  struct Fn {
    const FileModel* file;
    const FunctionModel* fn;
    std::vector<std::string> entry;  // entry_locks ∪ REQUIRES declaration
  };
  std::vector<Fn> fns;
  std::map<std::string, std::vector<std::size_t>> by_base;
  for (const auto& f : prog.files()) {
    for (const FunctionModel& fm : f->functions()) {
      Fn rec{f.get(), &fm, fm.entry_locks};
      const std::string key =
          fm.cls.empty() ? fm.base : fm.cls + "::" + fm.base;
      if (auto it = requires_locks.find(key); it != requires_locks.end()) {
        for (const auto& l : it->second) {
          if (std::find(rec.entry.begin(), rec.entry.end(), l) ==
              rec.entry.end()) {
            rec.entry.push_back(l);
          }
        }
      }
      by_base[fm.base].push_back(fns.size());
      fns.push_back(std::move(rec));
    }
  }

  // Edges from acquisitions: everything held (lexically, plus entry
  // locks outside lambda bodies) orders before the new lock.
  for (const Fn& rec : fns) {
    for (const LockAcquisition& acq : rec.fn->locks) {
      for (const std::string& h : acq.held) {
        add_edge(h, acq.lock, rec.file->path(), acq.line, "nested");
      }
      if (!acq.in_lambda) {
        for (const std::string& h : rec.entry) {
          add_edge(h, acq.lock, rec.file->path(), acq.line, "requires");
        }
      }
    }
  }

  // Edges from IOFA_ACQUIRED_BEFORE / IOFA_ACQUIRED_AFTER declarations.
  for (const auto& f : prog.files()) {
    for (const ClassModel& cls : f->classes()) {
      for (const MutexMember& mm : cls.mutex_members) {
        const std::string self = canonical_lock(mm.name, cls.name);
        for (const std::string& b : mm.acquired_before) {
          add_edge(self, b, f->path(), mm.line, "annotation");
        }
        for (const std::string& a : mm.acquired_after) {
          add_edge(a, self, f->path(), mm.line, "annotation");
        }
      }
    }
  }

  // Call propagation: a call made under a lock - held lexically, or
  // required on entry outside lambda bodies - orders that lock before
  // everything the callee acquires, but only when the callee name
  // resolves to exactly one lock-touching function in the program
  // (overloads and common names would fabricate edges otherwise). An
  // unqualified call inside a class method names the class's own
  // function when it has one, lock-free or not, as C++ lookup does.
  for (const Fn& rec : fns) {
    for (const HeldCall& call : rec.fn->calls) {
      if (call.held.empty() && (call.in_lambda || rec.entry.empty())) {
        continue;  // made with no lock held
      }
      auto it = by_base.find(call.callee);
      if (it == by_base.end()) continue;
      const bool own_class =
          !rec.fn->cls.empty() &&
          std::any_of(it->second.begin(), it->second.end(),
                      [&](std::size_t idx) {
                        return fns[idx].fn->cls == rec.fn->cls;
                      });
      const Fn* callee = nullptr;
      bool ambiguous = false;
      for (std::size_t idx : it->second) {
        const Fn& cand = fns[idx];
        if (own_class && cand.fn->cls != rec.fn->cls) continue;
        if (cand.fn->locks.empty()) continue;
        if (callee) {
          // Two lock-touching functions share the name (e.g. ::size()
          // on different classes): resolution would be a guess.
          ambiguous = true;
          break;
        }
        callee = &cand;
      }
      if (!callee || ambiguous) continue;
      if (callee->fn == rec.fn) continue;  // recursion: no new information
      for (const LockAcquisition& acq : callee->fn->locks) {
        if (acq.in_lambda) continue;
        for (const std::string& h : call.held) {
          add_edge(h, acq.lock, rec.file->path(), call.line, "call");
        }
        if (!call.in_lambda) {
          for (const std::string& h : rec.entry) {
            add_edge(h, acq.lock, rec.file->path(), call.line,
                     "requires call");
          }
        }
      }
    }
  }

  // Tarjan SCC (iterative) over the lock graph; each cyclic component
  // is one finding.
  std::vector<std::string> nodes;
  for (const auto& [n, _] : graph_) nodes.push_back(n);
  std::map<std::string, int> index, low, comp;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  int next_index = 0, next_comp = 0;
  std::vector<std::vector<std::string>> components;

  struct Frame {
    std::string node;
    std::map<std::string, Edge>::const_iterator it, end;
  };
  for (const std::string& root : nodes) {
    if (index.count(root)) continue;
    std::vector<Frame> call_stack;
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack.insert(root);
    call_stack.push_back(
        {root, graph_.at(root).begin(), graph_.at(root).end()});
    while (!call_stack.empty()) {
      Frame& fr = call_stack.back();
      if (fr.it != fr.end) {
        const std::string& to = fr.it->first;
        ++fr.it;
        if (!index.count(to)) {
          index[to] = low[to] = next_index++;
          stack.push_back(to);
          on_stack.insert(to);
          call_stack.push_back(
              {to, graph_.at(to).begin(), graph_.at(to).end()});
        } else if (on_stack.count(to)) {
          low[fr.node] = std::min(low[fr.node], index[to]);
        }
      } else {
        if (low[fr.node] == index[fr.node]) {
          components.emplace_back();
          for (;;) {
            const std::string n = stack.back();
            stack.pop_back();
            on_stack.erase(n);
            comp[n] = next_comp;
            components.back().push_back(n);
            if (n == fr.node) break;
          }
          ++next_comp;
        }
        const std::string done = fr.node;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          low[call_stack.back().node] =
              std::min(low[call_stack.back().node], low[done]);
        }
      }
    }
  }

  for (auto& cyc : components) {
    if (cyc.size() < 2) continue;  // same-lock recursion excluded above
    std::sort(cyc.begin(), cyc.end());
    const std::set<std::string> members(cyc.begin(), cyc.end());
    // Mark edges for the DOT dump.
    for (const std::string& n : cyc) {
      for (auto& [to, e] : graph_[n]) {
        if (members.count(to)) e.cyclic = true;
      }
    }
    // Recover one concrete cycle through the smallest member: BFS from
    // each of its in-component successors back to it, smallest first.
    const std::string& start = cyc.front();
    std::vector<std::string> path;  // start -> ... -> start
    for (const auto& [succ, _] : graph_[start]) {
      if (!members.count(succ)) continue;
      std::map<std::string, std::string> parent;  // node -> predecessor
      std::deque<std::string> queue = {succ};
      parent[succ] = start;
      while (!queue.empty() && !parent.count(start)) {
        const std::string cur = queue.front();
        queue.pop_front();
        for (const auto& [to, __] : graph_[cur]) {
          if (!members.count(to) || parent.count(to)) continue;
          parent[to] = cur;
          if (to == start) break;
          queue.push_back(to);
        }
      }
      if (!parent.count(start)) continue;
      // Parent chain start <- pred <- ... <- succ, reversed and closed:
      // start -> succ -> ... -> pred -> start.
      std::vector<std::string> rev = {start};
      for (std::string cur = parent.at(start); cur != start;
           cur = parent.at(cur)) {
        rev.push_back(cur);
      }
      path.assign(rev.rbegin(), rev.rend());  // succ ... pred -> start
      path.insert(path.begin(), start);       // close: start -> ... -> start
      break;
    }
    if (path.empty()) continue;  // unreachable: an SCC >= 2 has a cycle

    std::ostringstream cyc_txt, wit_txt;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i) cyc_txt << " -> ";
      cyc_txt << path[i];
    }
    const Edge* first_edge = nullptr;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const Edge& e = graph_.at(path[i]).at(path[i + 1]);
      if (i) wit_txt << ", ";
      wit_txt << path[i] << " -> " << path[i + 1] << " at " << e.file << ":"
              << e.line;
      if (!first_edge) first_edge = &e;
    }

    const FileModel* where = nullptr;
    for (const auto& f : prog.files()) {
      if (f->path() == first_edge->file) {
        where = f.get();
        break;
      }
    }
    if (!where) continue;  // witness outside the analyzed set: cannot happen
    rep.report(*where, first_edge->line, "lock-order",
               "potential deadlock: lock-order cycle " + cyc_txt.str() +
                   " (" + wit_txt.str() +
                   "); acquire these locks in one global order, or declare "
                   "the intended order with IOFA_ACQUIRED_BEFORE/AFTER");
  }
}

std::string LockOrderRule::dot() const {
  auto quote = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  };
  std::ostringstream out;
  out << "digraph lock_order {\n"
      << "  rankdir=LR;\n"
      << "  node [shape=box, fontname=\"monospace\"];\n";
  for (const auto& [from, edges] : graph_) {
    if (edges.empty() && graph_.size() > 1) {
      // Sink nodes still get declared so the graph shows every lock.
      out << "  " << quote(from) << ";\n";
      continue;
    }
    for (const auto& [to, e] : edges) {
      out << "  " << quote(from) << " -> " << quote(to) << " [label="
          << quote(e.file + ":" + std::to_string(e.line) + " (" + e.why + ")")
          << (e.cyclic ? ", color=red, penwidth=2.0" : "") << "];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace iofa::lint
