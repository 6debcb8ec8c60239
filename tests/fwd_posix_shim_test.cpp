// Tests for the POSIX-style descriptor shim over the GekkoFWD client.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "common/rng.hpp"
#include "fwd/posix_shim.hpp"
#include "fwd/service.hpp"

namespace iofa::fwd {
namespace {

using Flags = PosixShim::OpenFlags;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string string_of(std::span<const std::byte> b, std::size_t n) {
  return std::string(reinterpret_cast<const char*>(b.data()), n);
}

class PosixShimTest : public ::testing::Test {
 protected:
  PosixShimTest()
      : service_(make_config()),
        client_(ClientConfig{1, "shim", 1.0, 0.0}, service_),
        shim_(client_) {
    core::Mapping m;
    m.epoch = 1;
    m.pool = 2;
    m.jobs[1] = core::Mapping::Entry{"shim", {0, 1}, false};
    service_.apply_mapping(m);
    client_.refresh_mapping();
  }

  static ServiceConfig make_config() {
    ServiceConfig cfg;
    cfg.ion_count = 2;
    cfg.pfs.write_bandwidth = 4.0e9;
    cfg.pfs.read_bandwidth = 4.0e9;
    cfg.pfs.op_overhead = 4 * KiB;
    cfg.pfs.contention_coeff = 0.0;
    cfg.ion.ingest_bandwidth = 4.0e9;
    cfg.ion.op_overhead = 4 * KiB;
    cfg.ion.scheduler.kind = agios::SchedulerKind::Fifo;
    return cfg;
  }

  ForwardingService service_;
  Client client_;
  PosixShim shim_;
};

TEST_F(PosixShimTest, OpenMissingWithoutCreateFails) {
  EXPECT_EQ(shim_.open("/missing", Flags::kRead), -1);
}

TEST_F(PosixShimTest, WriteThenSequentialRead) {
  const int fd = shim_.open("/f", Flags::kWrite | Flags::kCreate);
  ASSERT_GE(fd, 3);
  EXPECT_EQ(shim_.write(fd, bytes_of("hello ")), 6);
  EXPECT_EQ(shim_.write(fd, bytes_of("world")), 5);
  EXPECT_EQ(shim_.close(fd), 0);

  const int rd = shim_.open("/f", Flags::kRead);
  ASSERT_GE(rd, 3);
  std::vector<std::byte> buf(11);
  EXPECT_EQ(shim_.read(rd, buf), 11);
  EXPECT_EQ(string_of(buf, 11), "hello world");
  EXPECT_EQ(shim_.read(rd, buf), 0);  // EOF
  shim_.close(rd);
}

TEST_F(PosixShimTest, SequentialOffsetsAdvance) {
  const int fd =
      shim_.open("/seq", Flags::kWrite | Flags::kRead | Flags::kCreate);
  shim_.write(fd, bytes_of("abcd"));
  shim_.write(fd, bytes_of("efgh"));
  EXPECT_EQ(shim_.lseek(fd, 0, PosixShim::Whence::Cur), 8);
  shim_.lseek(fd, 2, PosixShim::Whence::Set);
  std::vector<std::byte> buf(4);
  EXPECT_EQ(shim_.read(fd, buf), 4);
  EXPECT_EQ(string_of(buf, 4), "cdef");
  shim_.close(fd);
}

TEST_F(PosixShimTest, LseekWhenceSemantics) {
  const int fd = shim_.open("/l", Flags::kWrite | Flags::kCreate);
  shim_.write(fd, bytes_of("0123456789"));
  EXPECT_EQ(shim_.lseek(fd, 0, PosixShim::Whence::End), 10);
  EXPECT_EQ(shim_.lseek(fd, -4, PosixShim::Whence::End), 6);
  EXPECT_EQ(shim_.lseek(fd, 2, PosixShim::Whence::Cur), 8);
  EXPECT_EQ(shim_.lseek(fd, -100, PosixShim::Whence::Set), -1);
  shim_.close(fd);
}

TEST_F(PosixShimTest, AppendAlwaysWritesAtEnd) {
  const int a =
      shim_.open("/log", Flags::kWrite | Flags::kCreate | Flags::kAppend);
  shim_.write(a, bytes_of("one"));
  shim_.lseek(a, 0, PosixShim::Whence::Set);  // append ignores offset
  shim_.write(a, bytes_of("two"));
  shim_.close(a);

  const int rd = shim_.open("/log", Flags::kRead);
  std::vector<std::byte> buf(6);
  EXPECT_EQ(shim_.read(rd, buf), 6);
  EXPECT_EQ(string_of(buf, 6), "onetwo");
  shim_.close(rd);
}

TEST_F(PosixShimTest, TruncateResetsSize) {
  int fd = shim_.open("/t", Flags::kWrite | Flags::kCreate);
  shim_.write(fd, bytes_of("0123456789"));
  shim_.close(fd);
  fd = shim_.open("/t", Flags::kWrite | Flags::kRead | Flags::kTruncate);
  std::vector<std::byte> buf(10);
  EXPECT_EQ(shim_.read(fd, buf), 0);  // empty after truncate
  shim_.close(fd);
}

TEST_F(PosixShimTest, PreadPwriteDoNotMoveOffset) {
  const int fd =
      shim_.open("/p", Flags::kWrite | Flags::kRead | Flags::kCreate);
  shim_.write(fd, bytes_of("xxxxxxxx"));
  EXPECT_EQ(shim_.pwrite(fd, bytes_of("AB"), 2), 2);
  std::vector<std::byte> buf(8);
  EXPECT_EQ(shim_.pread(fd, buf, 0), 8);
  EXPECT_EQ(string_of(buf, 8), "xxABxxxx");
  EXPECT_EQ(shim_.lseek(fd, 0, PosixShim::Whence::Cur), 8);  // unchanged
  shim_.close(fd);
}

TEST_F(PosixShimTest, ReadOnlyDescriptorRejectsWrites) {
  shim_.close(shim_.open("/ro", Flags::kWrite | Flags::kCreate));
  const int fd = shim_.open("/ro", Flags::kRead);
  EXPECT_EQ(shim_.write(fd, bytes_of("nope")), -1);
  shim_.close(fd);
}

TEST_F(PosixShimTest, FsyncMakesDataDurable) {
  const int fd = shim_.open("/d", Flags::kWrite | Flags::kCreate);
  shim_.write(fd, bytes_of("durable!"));
  EXPECT_EQ(shim_.fsync(fd), 0);
  std::vector<std::byte> out(8);
  EXPECT_EQ(service_.pfs().read("/d", 0, 8, out), 8u);
  EXPECT_EQ(string_of(out, 8), "durable!");
  shim_.close(fd);
}

TEST_F(PosixShimTest, BadDescriptorsReturnMinusOne) {
  std::vector<std::byte> buf(4);
  EXPECT_EQ(shim_.write(99, bytes_of("x")), -1);
  EXPECT_EQ(shim_.read(99, buf), -1);
  EXPECT_EQ(shim_.lseek(99, 0, PosixShim::Whence::Set), -1);
  EXPECT_EQ(shim_.fsync(99), -1);
  EXPECT_EQ(shim_.close(99), -1);
}

TEST_F(PosixShimTest, DescriptorsAreIndependent) {
  const int a = shim_.open("/x", Flags::kWrite | Flags::kCreate);
  const int b = shim_.open("/y", Flags::kWrite | Flags::kCreate);
  EXPECT_NE(a, b);
  EXPECT_EQ(shim_.open_descriptors(), 2u);
  shim_.close(a);
  EXPECT_EQ(shim_.open_descriptors(), 1u);
  shim_.close(b);
}

TEST_F(PosixShimTest, ConcurrentWritersViaOwnDescriptors) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const int fd = shim_.open("/c" + std::to_string(t),
                                Flags::kWrite | Flags::kCreate,
                                static_cast<std::uint32_t>(t));
      Rng rng(static_cast<std::uint64_t>(t));
      for (int i = 0; i < 32; ++i) {
        std::vector<std::byte> data(1024);
        for (auto& x : data) x = static_cast<std::byte>(rng.next());
        EXPECT_EQ(shim_.write(fd, data), 1024);
      }
      shim_.close(fd);
    });
  }
  for (auto& t : threads) t.join();
  service_.drain();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(service_.pfs().stat("/c" + std::to_string(t))->size,
              32u * 1024u);
  }
}

}  // namespace
}  // namespace iofa::fwd
