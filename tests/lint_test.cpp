// End-to-end tests for tools/iofa_lint: for every rule, one fixture
// that passes and one that violates, plus the inline suppression tag.
// The linter binary path is injected by CMake as IOFA_LINT_BIN.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

#ifndef IOFA_LINT_BIN
#error "IOFA_LINT_BIN must be defined to the iofa_lint binary path"
#endif

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_lint_cmd(const std::string& args) {
  const std::string cmd = std::string(IOFA_LINT_BIN) + " " + args + " 2>&1";
  LintRun r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return r;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe)) r.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

LintRun run_lint(const fs::path& target) {
  return run_lint_cmd(target.string());
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fixture paths must contain src/ + fwd/ so the path-scoped rules
    // (raw-cout, bare-units) apply; keep everything inside the build
    // tree so nothing outside the repo is touched.
    dir_ = fs::current_path() / "lint_fixtures" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name() /
           "src" / "fwd";
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_.parent_path().parent_path());
  }

  fs::path write_fixture(const std::string& name, const std::string& body) {
    const fs::path p = dir_ / name;
    std::ofstream(p) << body;
    return p;
  }

  /// Same, but under src/rpc - the raw-wire rule's home turf.
  fs::path write_rpc_fixture(const std::string& name,
                             const std::string& body) {
    const fs::path rpc = dir_.parent_path() / "rpc";
    fs::create_directories(rpc);
    const fs::path p = rpc / name;
    std::ofstream(p) << body;
    return p;
  }

  fs::path dir_;
};

// ------------------------------------------------------------ naked-mutex

TEST_F(LintTest, AnnotatedMutexPasses) {
  const auto p = write_fixture("good.hpp",
                               "class Queue {\n"
                               " private:\n"
                               "  iofa::Mutex mu_;\n"
                               "  int depth_ IOFA_GUARDED_BY(mu_) = 0;\n"
                               "};\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("naked-mutex"), std::string::npos) << r.output;
}

TEST_F(LintTest, NakedMutexFlagged) {
  const auto p = write_fixture("bad.hpp",
                               "class Queue {\n"
                               " private:\n"
                               "  std::mutex mu_;\n"
                               "  int depth_ = 0;\n"
                               "};\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("naked-mutex"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad.hpp:3"), std::string::npos) << r.output;
}

TEST_F(LintTest, NakedMutexSuppressionHonoured) {
  const auto p = write_fixture(
      "allowed.hpp",
      "struct FileLock {\n"
      "  iofa::Mutex mu;  // iofa-lint: allow(naked-mutex) -- lock domain\n"
      "};\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, LocalMutexInFunctionNotFlagged) {
  // A mutex on the stack of a free function is not a member; the rule
  // only fires inside class/struct scopes.
  const auto p = write_fixture("local.cpp",
                               "void f() {\n"
                               "  std::mutex mu;\n"
                               "  std::lock_guard lk(mu);\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// -------------------------------------------------------------- raw-sleep

TEST_F(LintTest, BlessedSleepPasses) {
  const auto p = write_fixture("pace_good.cpp",
                               "void pace() {\n"
                               "  iofa::sleep_for_seconds(0.001);\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, RawSleepFlagged) {
  const auto p = write_fixture(
      "pace_bad.cpp",
      "void pace() {\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-sleep"), std::string::npos) << r.output;
}

TEST_F(LintTest, WallClockFlagged) {
  const auto p = write_fixture(
      "wall.cpp", "auto t = std::chrono::system_clock::now();\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-sleep"), std::string::npos) << r.output;
}

// --------------------------------------------------------------- raw-cout

TEST_F(LintTest, OstreamParameterPasses) {
  const auto p = write_fixture("print_good.cpp",
                               "void print(std::ostream& os) {\n"
                               "  os << \"depth\";\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, CoutInLibraryFlagged) {
  const auto p = write_fixture("print_bad.cpp",
                               "void print() {\n"
                               "  std::cout << \"depth\";\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-cout"), std::string::npos) << r.output;
}

// --------------------------------------------------------------- raw-rand

TEST_F(LintTest, SeededRngPasses) {
  const auto p = write_fixture("jitter_good.cpp",
                               "iofa::Seconds jitter(iofa::Rng& rng) {\n"
                               "  return 1e-3 * rng.uniform01();\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-rand"), std::string::npos) << r.output;
}

TEST_F(LintTest, Mt19937Flagged) {
  const auto p = write_fixture(
      "jitter_bad.cpp",
      "double jitter() {\n"
      "  std::mt19937_64 gen(std::random_device{}());\n"
      "  return std::uniform_real_distribution<double>(0, 1)(gen);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-rand"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("jitter_bad.cpp:2"), std::string::npos) << r.output;
}

TEST_F(LintTest, CLibraryRandFlagged) {
  const auto p = write_fixture("crand.cpp",
                               "int roll() { return rand() % 6; }\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-rand"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawRandSuppressionHonoured) {
  const auto p = write_fixture(
      "entropy.cpp",
      "std::uint64_t entropy() {\n"
      "  return std::random_device{}();  "
      "// iofa-lint: allow(raw-rand) -- seed harvesting CLI\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, RandomWordInIdentifierNotFlagged) {
  // "random" as part of an identifier or comment is not a call into the
  // C library's random().
  const auto p = write_fixture(
      "naming.cpp",
      "void shuffle(iofa::Rng& rng, std::vector<int>& random_order);\n"
      "// randomised via the seeded generator\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ------------------------------------------------------------- raw-thread

TEST_F(LintTest, ThreadPoolUsePasses) {
  const auto p = write_fixture("fanout_good.cpp",
                               "void fanout(iofa::ThreadPool& pool) {\n"
                               "  pool.submit([] {});\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-thread"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawThreadFlagged) {
  const auto p = write_fixture("fanout_bad.cpp",
                               "void fanout() {\n"
                               "  std::thread t([] {});\n"
                               "  t.join();\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-thread"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("fanout_bad.cpp:2"), std::string::npos) << r.output;
}

TEST_F(LintTest, JthreadFlaggedToo) {
  const auto p = write_fixture("fanout_j.cpp",
                               "std::jthread watcher;\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-thread"), std::string::npos) << r.output;
}

TEST_F(LintTest, HardwareConcurrencyNotFlagged) {
  // Static member calls are not thread construction.
  const auto p = write_fixture(
      "width.cpp",
      "unsigned width() { return std::thread::hardware_concurrency(); }\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, RawThreadApprovedFilePasses) {
  // The fixture dir is .../src/fwd/, so a file named daemon.cpp is one
  // of the approved thread owners.
  const auto p = write_fixture("daemon.cpp",
                               "void spawn() {\n"
                               "  std::thread t([] {});\n"
                               "  t.detach();\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, RawThreadSuppressionHonoured) {
  const auto p = write_fixture(
      "jobs.cpp",
      "void run() {\n"
      "  std::thread t([] {});  "
      "// iofa-lint: allow(raw-thread) -- per-job lifetime, joined below\n"
      "  t.join();\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ------------------------------------------------------------- bare-units

TEST_F(LintTest, UnitTypedefsPass) {
  const auto p = write_fixture("api_good.hpp",
                               "struct Params {\n"
                               "  Bytes capacity = 0;\n"
                               "  Seconds window = 0.0;\n"
                               "};\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, BareDoubleUnitsFlagged) {
  const auto p = write_fixture(
      "api_bad.hpp",
      "void charge(double bytes_in, double window_seconds);\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("bare-units"), std::string::npos) << r.output;
}

TEST_F(LintTest, BareUnitsOnlyAppliesToPublicHeaders) {
  // Same declaration in a .cpp: implementation detail, not flagged.
  const auto p = write_fixture(
      "impl.cpp", "static void charge(double bytes_in) { (void)bytes_in; }\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --------------------------------------------------------- swallowed-error

TEST_F(LintTest, CheckedSubmitPasses) {
  const auto p = write_fixture(
      "offer_good.cpp",
      "void offer(IonDaemon& d, FwdRequest req) {\n"
      "  if (d.try_submit(std::move(req)) != SubmitResult::kAccepted) {\n"
      "    rejected_->add();\n"
      "  }\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("swallowed-error"), std::string::npos) << r.output;
}

TEST_F(LintTest, DiscardedSubmitFlagged) {
  const auto p = write_fixture("offer_bad.cpp",
                               "void offer(IonDaemon& d, FwdRequest req) {\n"
                               "  d.submit(std::move(req));\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("swallowed-error"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("offer_bad.cpp:2"), std::string::npos) << r.output;
}

TEST_F(LintTest, DiscardedPfsWriteFlagged) {
  const auto p = write_fixture(
      "flush_bad.cpp",
      "void flush(Item& item) {\n"
      "  pfs_.write(item.path, item.offset, item.size, {}, 1.0);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("swallowed-error"), std::string::npos) << r.output;
}

TEST_F(LintTest, CatchAllFlagged) {
  const auto p = write_fixture("handler_bad.cpp",
                               "void drain() {\n"
                               "  try {\n"
                               "    pump();\n"
                               "  } catch (...) {\n"
                               "  }\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("swallowed-error"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("handler_bad.cpp:4"), std::string::npos) << r.output;
}

TEST_F(LintTest, SwallowedErrorSuppressionHonoured) {
  const auto p = write_fixture(
      "handler_allowed.cpp",
      "void shutdown() {\n"
      "  try {\n"
      "    pump();\n"
      "  } catch (...) {  "
      "// iofa-lint: allow(swallowed-error) -- teardown, daemon gone\n"
      "  }\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, AssignedCallContinuationNotFlagged) {
  // The wrapped tail of an assignment is not a discarded statement.
  const auto p = write_fixture(
      "offer_wrapped.cpp",
      "void offer(IonDaemon& d, FwdRequest req) {\n"
      "  const SubmitResult result =\n"
      "      d.try_submit(std::move(req));\n"
      "  (void)result;\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("swallowed-error"), std::string::npos) << r.output;
}

TEST_F(LintTest, PoolSubmitNotFlagged) {
  // ThreadPool::submit returns a future, not an error code.
  const auto p = write_fixture("fanout_pool.cpp",
                               "void fanout(iofa::ThreadPool& pool) {\n"
                               "  pool.submit([] {});\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("swallowed-error"), std::string::npos) << r.output;
}

// ------------------------------------------------------- raw-token-bucket

TEST_F(LintTest, HierarchicalBucketUsePasses) {
  // Drawing tokens through the hierarchy is the blessed path.
  const auto p = write_fixture(
      "tenant_draw.cpp",
      "bool admit(qos::HierarchicalTokenBucket& htb, double n) {\n"
      "  return htb.acquire(0, n, 0.0, true).ok;\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-token-bucket"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawTokenBucketMemberFlagged) {
  const auto p = write_fixture("tenant_limit.hpp",
                               "class TenantLimiter {\n"
                               "  TokenBucket bucket_;\n"
                               "};\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-token-bucket"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("tenant_limit.hpp:2"), std::string::npos)
      << r.output;
}

TEST_F(LintTest, RawTokenBucketMakeUniqueFlagged) {
  const auto p = write_fixture(
      "tenant_make.cpp",
      "void build(std::unique_ptr<TokenBucket>& out) {\n"
      "  out = std::make_unique<TokenBucket>(1.0e6, 2.0e6);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-token-bucket"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawTokenBucketHolderNotFlagged) {
  // A unique_ptr member holds a bucket someone else constructed; only
  // the construction site is the hierarchy bypass.
  const auto p = write_fixture("tenant_hold.hpp",
                               "class Service {\n"
                               "  std::unique_ptr<TokenBucket> limiter_;\n"
                               "  TokenBucket* view() { return nullptr; }\n"
                               "};\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-token-bucket"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawTokenBucketSuppressionHonoured) {
  const auto p = write_fixture(
      "tenant_root.hpp",
      "class Relay {\n"
      "  // the shared root, not a tenant limiter\n"
      "  TokenBucket root_;  // iofa-lint: allow(raw-token-bucket)\n"
      "};\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-token-bucket"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawTokenBucketPrecedingLineSuppressionHonoured) {
  // Wrapped construction calls carry the tag on the line above.
  const auto p = write_fixture(
      "tenant_wrap.cpp",
      "void build(std::unique_ptr<TokenBucket>& out, double bw) {\n"
      "  // fallback limiter. iofa-lint: allow(raw-token-bucket)\n"
      "  out = std::make_unique<TokenBucket>(\n"
      "      bw, bw * 0.05);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-token-bucket"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawTokenBucketOutOfScopeNotFlagged) {
  // The rule covers src/fwd and src/qos only; common/ owns the type.
  const auto common =
      dir_.parent_path() / "common";  // .../src/common, outside fwd
  fs::create_directories(common);
  const fs::path p = common / "bucket_owner.cpp";
  std::ofstream(p) << "TokenBucket make() { return TokenBucket(1.0, 2.0); }\n";
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-token-bucket"), std::string::npos) << r.output;
}

// ------------------------------------------------------------ raw-payload

TEST_F(LintTest, RawPayloadVectorByteFlagged) {
  const auto p = write_fixture(
      "hot_path.cpp",
      "void stage(FwdRequest& req, std::size_t n) {\n"
      "  std::vector<std::byte> buf(n);\n"
      "  req.payload = iofa::Payload::wrap(\n"
      "      std::make_shared<std::vector<std::byte>>(buf));\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-payload"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("hot_path.cpp:2"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawPayloadSlabAcquirePasses) {
  const auto p = write_fixture(
      "slab_path.cpp",
      "void stage(FwdRequest& req, Service& svc, std::size_t n) {\n"
      "  req.payload = svc.acquire_payload(n);\n"
      "  std::vector<char> scratch(n);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-payload"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawPayloadSuppressionHonoured) {
  const auto p = write_fixture(
      "fill_buf.cpp",
      "void fill(std::size_t n) {\n"
      "  // scratch fill pattern, never enters a FwdRequest\n"
      "  std::vector<std::byte> pattern(n);  // iofa-lint: allow(raw-payload)\n"
      "  (void)pattern;\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-payload"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawPayloadOutOfScopeNotFlagged) {
  // The rule covers src/fwd only; common/slab_pool itself and the gkfs
  // chunk store construct vector<std::byte> by design.
  const auto common = dir_.parent_path() / "common";
  fs::create_directories(common);
  const fs::path p = common / "slab_impl.cpp";
  std::ofstream(p) << "std::vector<std::byte> backing(kSlabBytes);\n";
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-payload"), std::string::npos) << r.output;
}

// -------------------------------------------------------------- raw-wire

TEST_F(LintTest, RawWireMemcpyInRpcFlagged) {
  const auto p = write_rpc_fixture(
      "shm_fast.cpp",
      "void ship(std::byte* slot, const std::vector<std::byte>& frame) {\n"
      "  std::memcpy(slot, frame.data(), frame.size());\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-wire"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("shm_fast.cpp:2"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawWireReinterpretCastFlagged) {
  const auto p = write_rpc_fixture(
      "peek.cpp",
      "std::uint64_t id_of(const std::vector<std::byte>& frame) {\n"
      "  return *reinterpret_cast<const std::uint64_t*>(frame.data() + 8);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-wire"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawWireCodecIsExempt) {
  // The codec is the sanctioned home of byte punning: the one
  // reader/writer of the wire format.
  const auto p = write_rpc_fixture(
      "codec.cpp",
      "void put_u32(std::byte* at, std::uint32_t v) {\n"
      "  std::memcpy(at, &v, sizeof v);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-wire"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawWireSuppressionHonoured) {
  const auto p = write_rpc_fixture(
      "tcp_accept.cpp",
      "void bind_to(int fd, sockaddr_in& addr) {\n"
      "  // iofa-lint: allow(raw-wire) - OS interface, not frame bytes.\n"
      "  ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-wire"), std::string::npos) << r.output;
}

TEST_F(LintTest, RawWireOutsideRpcNotFlagged) {
  // memcpy elsewhere in the tree is someone else's business (payload
  // staging, slab fills); the rule watches the rpc layer only.
  const auto p = write_fixture(
      "stage_copy.cpp",
      "void fill(char* dst, const char* src, std::size_t n) {\n"
      "  std::memcpy(dst, src, n);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("raw-wire"), std::string::npos) << r.output;
}

// ------------------------------------------------------ typed-completion

TEST_F(LintTest, TypedCompletionPromiseInFwdFlagged) {
  const auto p = write_fixture(
      "legacy_ack.cpp",
      "void offer(FwdRequest& req) {\n"
      "  auto done = std::make_shared<std::promise<std::size_t>>();\n"
      "  std::future<std::size_t> fut = done->get_future();\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("legacy_ack.cpp:2: [typed-completion] "
                          "std::promise"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("legacy_ack.cpp:3: [typed-completion] "
                          "std::future"),
            std::string::npos)
      << r.output;
}

TEST_F(LintTest, TypedCompletionExceptionPtrInRpcFlagged) {
  const auto p = write_rpc_fixture(
      "relay.cpp",
      "std::exception_ptr relay_error(int ion) {\n"
      "  return std::make_exception_ptr(std::runtime_error(\"down\"));\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[typed-completion]"), 2u) << r.output;
}

TEST_F(LintTest, TypedCompletionContinuationPasses) {
  const auto p = write_fixture(
      "typed_ack.cpp",
      "void offer(IonDaemon& d, FwdRequest req) {\n"
      "  // A std::future in a comment or \"std::promise\" in a string is\n"
      "  // not a completion path.\n"
      "  auto slot = wait_on(req);\n"
      "  if (d.try_submit(std::move(req)) != SubmitResult::kAccepted) "
      "return;\n"
      "  if (slot->wait().status == CompletionStatus::kIonDown) return;\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("typed-completion"), std::string::npos)
      << r.output;
}

TEST_F(LintTest, TypedCompletionOutsideRequestPathNotFlagged) {
  // The thread pool hands out futures by design; the fence covers the
  // forwarding and rpc layers only.
  const fs::path common = dir_.parent_path() / "common";
  fs::create_directories(common);
  const fs::path p = common / "pool.hpp";
  std::ofstream(p) << "std::future<int> submit_task();\n";
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("typed-completion"), std::string::npos)
      << r.output;
}

TEST_F(LintTest, TypedCompletionSuppressionHonoured) {
  const auto p = write_fixture(
      "bridge.cpp",
      "// iofa-lint: allow(typed-completion) - adapter for a legacy caller.\n"
      "std::future<std::size_t> bridge(FwdRequest& req);\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("typed-completion"), std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------- driver

TEST_F(LintTest, DirectoryScanAggregatesFindings) {
  write_fixture("one.hpp",
                "class A {\n"
                "  std::mutex mu_;\n"
                "};\n");
  write_fixture("two.cpp",
                "void f() { usleep(100); }\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("naked-mutex"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("raw-sleep"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("2 finding(s)"), std::string::npos) << r.output;
}

TEST_F(LintTest, MissingPathIsUsageError) {
  const auto r = run_lint(dir_ / "does_not_exist.cpp");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// ------------------------------------------------- swallowed-error (v2)

TEST_F(LintTest, MultiLineDiscardedSubmitFlagged) {
  // The v1 line-scanner only saw single-line statements; a call wrapped
  // across lines slipped through. The token-stream matcher must not.
  const auto p = write_fixture("wrapped.cpp",
                               "void f(Daemon& d, Request r) {\n"
                               "  d.try_submit(\n"
                               "      std::move(r),\n"
                               "      kDefaultPriority);\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("swallowed-error"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("wrapped.cpp:2"), std::string::npos) << r.output;
}

// -------------------------------------------- suppression exactness (v2)

TEST_F(LintTest, SuppressionTagInStringLiteralDoesNotSuppress) {
  const auto p = write_fixture(
      "strtag.cpp",
      "void f() {\n"
      "  log(\"iofa-lint: allow(raw-sleep)\"); usleep(1);\n"
      "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-sleep"), std::string::npos) << r.output;
}

TEST_F(LintTest, SuppressionRequiresExactRuleName) {
  // allow(raw) is a prefix of raw-sleep, allow(raw-sleep-forever) a
  // superstring; neither names the rule, so neither suppresses it.
  const auto p = write_fixture("prefix.cpp",
                               "void f() {\n"
                               "  usleep(1);  // iofa-lint: allow(raw)\n"
                               "  usleep(2);  // iofa-lint: allow(raw-sleep-forever)\n"
                               "  usleep(3);  // iofa-lint: allow(raw-rand)\n"
                               "}\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "raw-sleep"), 3u) << r.output;
}

// ------------------------------------------------------------ lock-order

TEST_F(LintTest, LockOrderCycleAcrossFilesFlaggedOnce) {
  write_fixture("ab.cpp",
                "void first() {\n"
                "  std::lock_guard<std::mutex> la(a_mu);\n"
                "  std::lock_guard<std::mutex> lb(b_mu);\n"
                "}\n");
  write_fixture("ba.cpp",
                "void second() {\n"
                "  std::lock_guard<std::mutex> lb(b_mu);\n"
                "  std::lock_guard<std::mutex> la(a_mu);\n"
                "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // One cycle is ONE finding, not one per edge or per file.
  EXPECT_EQ(count_of(r.output, "[lock-order]"), 1u) << r.output;
  EXPECT_NE(r.output.find("lock-order cycle"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("a_mu -> b_mu"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST_F(LintTest, ConsistentLockOrderPasses) {
  write_fixture("ab.cpp",
                "void first() {\n"
                "  std::lock_guard<std::mutex> la(a_mu);\n"
                "  std::lock_guard<std::mutex> lb(b_mu);\n"
                "}\n");
  write_fixture("ab2.cpp",
                "void second() {\n"
                "  std::lock_guard<std::mutex> la(a_mu);\n"
                "  std::lock_guard<std::mutex> lb(b_mu);\n"
                "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, LockOrderSuppressionHonoured) {
  // The finding lands on the first witness edge (the b_mu acquisition
  // in ab.cpp); the allow tag on that line owns the whole cycle.
  write_fixture(
      "ab.cpp",
      "void first() {\n"
      "  std::lock_guard<std::mutex> la(a_mu);\n"
      "  std::lock_guard<std::mutex> lb(b_mu);  // iofa-lint: allow(lock-order)\n"
      "}\n");
  write_fixture("ba.cpp",
                "void second() {\n"
                "  std::lock_guard<std::mutex> lb(b_mu);\n"
                "  std::lock_guard<std::mutex> la(a_mu);\n"
                "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, DeclaredOrderViaAnnotationIsItselfChecked) {
  // IOFA_ACQUIRED_AFTER contradicting the code's nesting order is a
  // cycle between the declared and the observed edge.
  write_fixture("decl.hpp",
                "class Owner {\n"
                "  iofa::Mutex a_mu_ IOFA_ACQUIRED_AFTER(b_mu_);\n"
                "  iofa::Mutex b_mu_;\n"
                "  int x_ IOFA_GUARDED_BY(a_mu_);\n"
                "  void step();\n"
                "};\n");
  write_fixture("decl.cpp",
                "void Owner::step() {\n"
                "  iofa::MutexLock la(a_mu_);\n"
                "  iofa::MutexLock lb(b_mu_);\n"
                "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[lock-order]"), 1u) << r.output;
}

TEST_F(LintTest, RequiresContractOrdersLocksTakenByCallees) {
  // step() runs under a_mu_ by contract only (the caller locks), and
  // its callee takes b_mu_: a_mu_ -> b_mu_, which back() inverts.
  write_fixture("req.hpp",
                "class Owner {\n"
                "  iofa::Mutex a_mu_;\n"
                "  iofa::Mutex b_mu_;\n"
                "  int x_ IOFA_GUARDED_BY(a_mu_);\n"
                "  int y_ IOFA_GUARDED_BY(b_mu_);\n"
                "  void step() IOFA_REQUIRES(a_mu_);\n"
                "  void inner();\n"
                "  void back();\n"
                "};\n");
  write_fixture("req.cpp",
                "void Owner::inner() { iofa::MutexLock lb(b_mu_); }\n"
                "void Owner::step() { inner(); }\n"
                "void Owner::back() {\n"
                "  iofa::MutexLock lb(b_mu_);\n"
                "  iofa::MutexLock la(a_mu_);\n"
                "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[lock-order]"), 1u) << r.output;

  // The same call inside a lambda runs later, without the entry lock.
  write_fixture("req.cpp",
                "void Owner::inner() { iofa::MutexLock lb(b_mu_); }\n"
                "void Owner::step() { spawn([this] { inner(); }); }\n"
                "void Owner::back() {\n"
                "  iofa::MutexLock lb(b_mu_);\n"
                "  iofa::MutexLock la(a_mu_);\n"
                "}\n");
  EXPECT_EQ(run_lint(dir_).exit_code, 0);
}

TEST_F(LintTest, UnqualifiedCallResolvesToTheCallersOwnClassFirst) {
  // Owner::step() calls its own lock-free finish(), not Other::finish()
  // (the only lock-touching finish in the program): no edge from
  // Owner's lock to Other's.
  write_fixture("own.cpp",
                "void Owner::finish() { x_ = 0; }\n"
                "void Owner::step() {\n"
                "  iofa::MutexLock la(a_mu_);\n"
                "  finish();\n"
                "}\n"
                "void Other::finish() { iofa::MutexLock lc(c_mu_); }\n");
  const std::string edge = "\"Owner::a_mu_\" -> \"Other::c_mu_\"";
  auto r = run_lint_cmd("--dot - " + dir_.string());
  EXPECT_EQ(r.output.find(edge), std::string::npos) << r.output;

  // Without a finish() of its own, Owner's call can only mean Other's.
  write_fixture("own.cpp",
                "void Owner::step() {\n"
                "  iofa::MutexLock la(a_mu_);\n"
                "  finish();\n"
                "}\n"
                "void Other::finish() { iofa::MutexLock lc(c_mu_); }\n");
  r = run_lint_cmd("--dot - " + dir_.string());
  EXPECT_NE(r.output.find(edge), std::string::npos) << r.output;
}

TEST_F(LintTest, DotDumpShowsLockGraph) {
  write_fixture("ab.cpp",
                "void first() {\n"
                "  std::lock_guard<std::mutex> la(a_mu);\n"
                "  std::lock_guard<std::mutex> lb(b_mu);\n"
                "}\n");
  const auto r = run_lint_cmd("--dot - " + dir_.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("digraph lock_order"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"a_mu\" -> \"b_mu\""), std::string::npos)
      << r.output;
}

// --------------------------------------------------------- clock-hygiene

TEST_F(LintTest, DirectSteadyClockReadFlagged) {
  const auto p = write_fixture(
      "tick.cpp", "auto t() { return std::chrono::steady_clock::now(); }\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("clock-hygiene"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST_F(LintTest, CTimeCallFlagged) {
  const auto p = write_fixture("epoch.cpp",
                               "long now() { return time(nullptr); }\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("clock-hygiene"), std::string::npos) << r.output;
}

TEST_F(LintTest, MonotonicNowPasses) {
  const auto p = write_fixture(
      "tick.cpp",
      "iofa::MonotonicClock::time_point t() { return iofa::monotonic_now(); }\n"
      "void wait_until(iofa::MonotonicClock::time_point tp);\n");
  const auto r = run_lint(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(LintTest, ClockHygieneSuppressionHonoured) {
  const auto p = write_fixture(
      "boot.cpp",
      "// iofa-lint: allow(clock-hygiene) -- process start stamp\n"
      "auto t0 = std::chrono::system_clock::now();\n");
  const auto r = run_lint(p);
  // system_clock also trips raw-sleep; only checking clock-hygiene here.
  EXPECT_EQ(r.output.find("clock-hygiene"), std::string::npos) << r.output;
}

// ------------------------------------------------------- metric-manifest

class MetricManifestTest : public LintTest {
 protected:
  // dir_ is <root>/src/fwd; the rule discovers the manifest at
  // <root>/src/telemetry/metrics_manifest.inc.
  void write_manifest(const std::string& body) {
    const fs::path tel = dir_.parent_path() / "telemetry";
    fs::create_directories(tel);
    std::ofstream(tel / "metrics_manifest.inc") << body;
  }
};

TEST_F(MetricManifestTest, UnregisteredMetricFlaggedOnce) {
  write_manifest(
      "IOFA_METRIC(counter, \"fwd.good\", \"a declared series\")\n");
  write_fixture("emit.cpp",
                "void f(Registry& r) {\n"
                "  r.counter(\"fwd.good\")->add(1);\n"
                "  r.counter(\"fwd.bad\")->add(1);\n"
                "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[metric-manifest]"), 1u) << r.output;
  EXPECT_NE(r.output.find("'fwd.bad'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST_F(MetricManifestTest, AdjacentStringLiteralsFuse) {
  write_manifest("IOFA_METRIC(gauge, \"fwd.queue.depth\", \"whole name\")\n");
  write_fixture("emit.cpp",
                "void f(Registry& r) {\n"
                "  r.gauge(\"fwd.queue.\" \"depth\")->set(0);\n"
                "  r.gauge(\"fwd.queue.\"\n"
                "          \"lag\")->set(0);\n"
                "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[metric-manifest]"), 1u) << r.output;
  EXPECT_NE(r.output.find("'fwd.queue.lag'"), std::string::npos) << r.output;
}

TEST_F(MetricManifestTest, KindMismatchFlagged) {
  write_manifest(
      "IOFA_METRIC(gauge, \"fwd.depth\", \"declared as a gauge\")\n"
      "IOFA_METRIC(histogram, \"fwd.lat_us\", \"declared as a histogram\")\n");
  write_fixture("emit.cpp",
                "void f(Registry& r) {\n"
                "  r.gauge(\"fwd.depth\")->set(0);\n"
                "  r.counter(\"fwd.depth\")->add(1);\n"
                "  r.histogram(\"fwd.lat_us\", spec)->observe(1);\n"
                "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[metric-manifest]"), 1u) << r.output;
  EXPECT_NE(r.output.find("made as a counter but declared as a gauge"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("emit.cpp:3"), std::string::npos) << r.output;
}

TEST_F(MetricManifestTest, NoManifestMeansRuleInactive) {
  write_fixture("emit.cpp",
                "void f(Registry& r) { r.counter(\"fwd.any\")->add(1); }\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MetricManifestTest, DynamicNamesSkipped) {
  write_manifest("IOFA_METRIC(counter, \"fwd.good\", \"declared\")\n");
  write_fixture("emit.cpp",
                "void f(Registry& r, const std::string& n) {\n"
                "  r.counter(n)->add(1);\n"
                "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(MetricManifestTest, MetricManifestSuppressionHonoured) {
  write_manifest("IOFA_METRIC(counter, \"fwd.good\", \"declared\")\n");
  write_fixture(
      "emit.cpp",
      "void f(Registry& r) {\n"
      "  r.counter(\"fwd.tmp\")->add(1);  // iofa-lint: allow(metric-manifest)\n"
      "}\n");
  const auto r = run_lint(dir_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --------------------------------------------------------- driver (v2)

TEST_F(LintTest, ListRulesShowsAllThirteen) {
  const auto r = run_lint_cmd("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule :
       {"naked-mutex", "raw-sleep", "raw-rand", "raw-cout", "raw-thread",
        "bare-units", "raw-token-bucket", "raw-payload", "raw-wire",
        "swallowed-error", "lock-order", "clock-hygiene",
        "metric-manifest"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule << "\n"
                                                      << r.output;
  }
}

TEST_F(LintTest, RuleFilterRunsOnlySelectedRules) {
  write_fixture("mixed.hpp",
                "class A {\n"
                "  std::mutex mu_;\n"
                "};\n");
  write_fixture("mixed.cpp", "void f() { usleep(100); }\n");
  const auto r = run_lint_cmd("--rules raw-sleep " + dir_.string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-sleep"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("naked-mutex"), std::string::npos) << r.output;
}

TEST_F(LintTest, UnknownRuleIsUsageError) {
  const auto r = run_lint_cmd("--rules no-such-rule " + dir_.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST_F(LintTest, CatalogRendersManifest) {
  const fs::path tel = dir_.parent_path() / "telemetry";
  fs::create_directories(tel);
  std::ofstream(tel / "m.inc")
      << "IOFA_METRIC(counter, \"fwd.demo.total\", \"demo series\")\n";
  const auto r = run_lint_cmd("--manifest " + (tel / "m.inc").string() +
                              " --catalog -");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("fwd.demo.total"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("demo series"), std::string::npos) << r.output;
}

// The repository's own library tree must stay clean; this is the same
// gate CI runs, kept here so a plain `ctest` catches regressions too.
TEST(LintRepoTest, SrcTreeIsClean) {
#ifdef IOFA_REPO_SRC
  const auto r = run_lint(IOFA_REPO_SRC);
  EXPECT_EQ(r.exit_code, 0) << r.output;
#else
  GTEST_SKIP() << "IOFA_REPO_SRC not defined";
#endif
}

TEST(LintRepoTest, ToolsTreeIsClean) {
#ifdef IOFA_REPO_TOOLS
  const auto r = run_lint(IOFA_REPO_TOOLS);
  EXPECT_EQ(r.exit_code, 0) << r.output;
#else
  GTEST_SKIP() << "IOFA_REPO_TOOLS not defined";
#endif
}

// Every series the code can emit must be declared: linting src/ with
// the checked-in manifest is the acceptance gate for the catalog.
TEST(LintRepoTest, ManifestCoversEmittedSeries) {
#if defined(IOFA_REPO_SRC) && defined(IOFA_REPO_MANIFEST)
  const auto r = run_lint_cmd(std::string("--manifest ") + IOFA_REPO_MANIFEST +
                              " --rules metric-manifest " + IOFA_REPO_SRC);
  EXPECT_EQ(r.exit_code, 0) << r.output;
#else
  GTEST_SKIP() << "repo paths not defined";
#endif
}

}  // namespace
