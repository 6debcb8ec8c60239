// Style/hygiene rules migrated from the v1 regex line-scanner onto the
// token stream: raw-sleep, raw-rand, raw-cout, raw-thread, bare-units,
// raw-token-bucket. Semantics are v1's (same scopes, same messages);
// the token model removes the literal/comment false positives and the
// single-line blind spots.

#include "lint/rules_style.hpp"

#include <set>

namespace iofa::lint {

namespace {

bool next_is_call(const FileModel& f, std::size_t ci) {
  const Token* nxt = code_tok(f, ci + 1);
  return nxt && nxt->is_punct("(");
}

}  // namespace

// --- raw-sleep ------------------------------------------------------------

void RawSleepRule::scan(const FileModel& f, Reporter& rep) {
  if (!(f.in_path("src/") || f.in_path("tools/"))) return;
  if (f.in_path("common/clock.")) return;
  const auto& code = f.code();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    bool hit = false;
    if (t.is_ident("std") &&
        (match_code_seq(f, i, {"std", "::", "this_thread", "::", "sleep_for"}) ||
         match_code_seq(f, i,
                        {"std", "::", "this_thread", "::", "sleep_until"}) ||
         match_code_seq(f, i, {"std", "::", "chrono", "::", "system_clock"}))) {
      hit = true;
    } else if ((t.is_ident("usleep") || t.is_ident("nanosleep") ||
                t.is_ident("gettimeofday")) &&
               next_is_call(f, i) && free_call_position(f, i)) {
      hit = true;
    }
    if (hit) {
      rep.report(f, t.line, "raw-sleep",
                 "raw sleep / wall-clock call; use iofa::sleep_for_seconds "
                 "or the monotonic clock (common/clock.hpp)");
    }
  }
}

// --- raw-rand -------------------------------------------------------------

void RawRandRule::scan(const FileModel& f, Reporter& rep) {
  // Determinism discipline covers the library AND the tools (fault
  // drills replay from a seed end to end); the one blessed source of
  // randomness is iofa::Rng itself.
  if (!(f.in_path("src/") || f.in_path("tools/"))) return;
  if (f.in_path("common/rng.")) return;
  static const std::set<std::string> kStdTypes = {
      "mt19937",
      "mt19937_64",
      "minstd_rand",
      "minstd_rand0",
      "default_random_engine",
      "random_device",
      "uniform_int_distribution",
      "uniform_real_distribution",
      "normal_distribution",
      "bernoulli_distribution",
      "poisson_distribution",
      "exponential_distribution",
      "discrete_distribution",
  };
  static const std::set<std::string> kCCalls = {
      "rand", "srand", "drand48", "srand48", "lrand48", "random"};
  const auto& code = f.code();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    bool hit = false;
    if (t.is_ident("std") && i + 2 < code.size() &&
        f.tokens()[code[i + 1]].is_punct("::") &&
        kStdTypes.count(f.tokens()[code[i + 2]].text)) {
      hit = true;
    } else if (t.kind == TokenKind::kIdentifier && kCCalls.count(t.text) &&
               next_is_call(f, i) && free_call_position(f, i)) {
      hit = true;
    }
    if (hit) {
      rep.report(f, t.line, "raw-rand",
                 "unseeded/raw randomness; use iofa::Rng (common/rng.hpp) "
                 "so runs replay from a seed");
    }
  }
}

// --- raw-cout -------------------------------------------------------------

void RawCoutRule::scan(const FileModel& f, Reporter& rep) {
  // Logging discipline applies to the library tree; tools/benches and
  // the exporters write their actual output to streams by design.
  if (!f.in_path("src/")) return;
  if (f.in_path("common/log.") || f.in_path("telemetry/export")) return;
  const auto& code = f.code();
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (match_code_seq(f, i, {"std", "::", "cout"}) ||
        match_code_seq(f, i, {"std", "::", "cerr"})) {
      rep.report(f, f.tokens()[code[i]].line, "raw-cout",
                 "direct std::cout/std::cerr in library code; use "
                 "iofa::log_* (common/log.hpp) or take a std::ostream&");
    }
  }
}

// --- raw-thread -----------------------------------------------------------

void RawThreadRule::scan(const FileModel& f, Reporter& rep) {
  // Thread-ownership discipline for the library and the tools: spawning
  // is confined to the pool and the daemon-style owners, where the
  // join-on-shutdown lifecycle is centralised and TSan-exercised.
  if (!(f.in_path("src/") || f.in_path("tools/"))) return;
  if (f.in_path("common/thread_pool.") || f.in_path("fwd/daemon.") ||
      f.in_path("fwd/health.")) {
    return;
  }
  const auto& code = f.code();
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (!match_code_seq(f, i, {"std", "::", "thread"}) &&
        !match_code_seq(f, i, {"std", "::", "jthread"})) {
      continue;
    }
    // Static member access (std::thread::hardware_concurrency) is not
    // thread construction.
    const Token* after = code_tok(f, i + 3);
    if (after && after->is_punct("::")) continue;
    rep.report(f, f.tokens()[code[i]].line, "raw-thread",
               "raw std::thread outside the approved owners; use "
               "iofa::ThreadPool (common/thread_pool.hpp) or justify the "
               "ownership inline");
  }
}

// --- bare-units -----------------------------------------------------------

void BareUnitsRule::scan(const FileModel& f, Reporter& rep) {
  if (!(f.in_path("core/") || f.in_path("fwd/"))) return;
  if (!f.has_extension(".hpp")) return;
  const auto& code = f.code();
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    if (!t.is_ident("double")) continue;
    const Token& name = f.tokens()[code[i + 1]];
    if (name.kind != TokenKind::kIdentifier) continue;
    if (name.text.find("byte") == std::string::npos &&
        name.text.find("second") == std::string::npos &&
        name.text.find("secs") == std::string::npos) {
      continue;
    }
    rep.report(f, t.line, "bare-units",
               "bare 'double' carrying bytes/seconds in a public header; "
               "use the Bytes / Seconds typedefs (common/units.hpp)");
  }
}

// --- raw-token-bucket -----------------------------------------------------

void RawTokenBucketRule::scan(const FileModel& f, Reporter& rep) {
  // Scope: the forwarding data path and the QoS layer itself, where a
  // stray raw bucket silently bypasses the tenant hierarchy's
  // reserved/borrowed/lent accounting. Construction sites only:
  // pointer/reference types and unique_ptr<TokenBucket> members
  // (holders, not makers) do not match.
  if (!(f.in_path("src/fwd") || f.in_path("src/qos"))) return;
  const auto& code = f.code();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    bool hit = false;
    if (t.is_ident("new") && i + 1 < code.size() &&
        f.tokens()[code[i + 1]].is_ident("TokenBucket")) {
      hit = true;
    } else if ((t.is_ident("make_unique") || t.is_ident("make_shared")) &&
               match_code_seq(f, i + 1, {"<", "TokenBucket", ">"})) {
      hit = true;
    } else if (t.is_ident("TokenBucket") && i + 2 < code.size() &&
               f.tokens()[code[i + 1]].kind == TokenKind::kIdentifier) {
      const Token& after = f.tokens()[code[i + 2]];
      if (after.is_punct(";") || after.is_punct("(") || after.is_punct("{") ||
          after.is_punct("=")) {
        hit = true;
      }
    }
    if (hit) {
      rep.report(f, t.line, "raw-token-bucket",
                 "direct TokenBucket construction in the forwarding/QoS "
                 "layer; rate-limit tenants through the "
                 "HierarchicalTokenBucket (qos/hierarchical_bucket.hpp) or "
                 "justify the raw bucket inline");
    }
  }
}

// --- raw-payload ----------------------------------------------------------

void RawPayloadRule::scan(const FileModel& f, Reporter& rep) {
  // Scope: the forwarding data path, where every request payload is
  // supposed to come from the deployment slab pool (iofa::Payload) so
  // bytes travel client -> dispatcher -> flusher -> PFS without a copy.
  // A std::vector<std::byte> constructed here is a heap payload that
  // silently reintroduces the per-request allocation the zero-copy path
  // removed, invisible to the fwd.ion.slab.* gauges and the bench's
  // allocation gate. Fill/scratch buffers that never enter a FwdRequest
  // justify themselves with an inline allow(raw-payload).
  if (!f.in_path("src/fwd")) return;
  // The RPC endpoints are the frame-marshalling boundary: their
  // vector<std::byte> values are wire frames (codec output), not
  // forwarding payloads - actual payloads still enter FwdRequest as
  // slab handles there.
  if (f.in_path("fwd/rpc_endpoints.")) return;
  const auto& code = f.code();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    if (!t.is_ident("vector")) continue;
    if (!match_code_seq(f, i + 1, {"<", "std", "::", "byte", ">"})) continue;
    rep.report(f, t.line, "raw-payload",
               "std::vector<std::byte> payload buffer in the forwarding "
               "path; acquire an iofa::Payload from the slab pool "
               "(common/slab_pool.hpp) or justify the raw buffer inline");
  }
}

// --- raw-wire -------------------------------------------------------------

void RawWireRule::scan(const FileModel& f, Reporter& rep) {
  // Scope: the RPC layer, where every frame byte is supposed to be
  // produced and interpreted by the versioned codec (rpc/codec.cpp) so
  // the wire format has exactly one reader and one writer. A memcpy or
  // reinterpret_cast on frame bytes anywhere else is a second, silent
  // codec: it bypasses the checksum/length validation and drifts the
  // moment kWireVersion moves. The codec itself is the sanctioned home
  // of byte punning; OS-interface casts (sockaddr) justify themselves
  // with an inline allow(raw-wire).
  if (!f.in_path("src/rpc")) return;
  if (f.in_path("rpc/codec.")) return;
  const auto& code = f.code();
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    const bool is_memcpy = t.is_ident("memcpy");
    const bool is_cast = t.is_ident("reinterpret_cast");
    if (!is_memcpy && !is_cast) continue;
    rep.report(f, t.line, "raw-wire",
               is_memcpy
                   ? "memcpy on frame bytes outside the codec; frames are "
                     "encoded/decoded only by rpc::encode / rpc::decode "
                     "(rpc/codec.hpp) - or justify the copy inline"
                   : "reinterpret_cast in the rpc layer; frame bytes are "
                     "interpreted only by the codec (rpc/codec.hpp) - or "
                     "justify the cast inline");
  }
}

// --- typed-completion -----------------------------------------------------

void TypedCompletionRule::scan(const FileModel& f, Reporter& rep) {
  // Scope: the request path, where a request completes one way only (a
  // typed Completion handed to its continuation, fwd/request.hpp).
  if (!(f.in_path("src/fwd") || f.in_path("src/rpc"))) return;
  static const std::set<std::string> kBanned = {
      "promise", "future", "shared_future", "packaged_task",
      "exception_ptr", "make_exception_ptr"};
  const auto& code = f.code();
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    const Token& t = f.tokens()[code[i]];
    if (!t.is_ident("std") || !f.tokens()[code[i + 1]].is_punct("::") ||
        !kBanned.count(f.tokens()[code[i + 2]].text)) {
      continue;
    }
    rep.report(f, t.line, "typed-completion",
               "std::" + f.tokens()[code[i + 2]].text +
                   " in the request path; complete requests through "
                   "their continuation (fwd/request.hpp)");
  }
}

}  // namespace iofa::lint
