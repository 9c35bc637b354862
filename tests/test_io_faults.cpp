#include "src/inject/io_faults.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/trace/columnar_io.h"
#include "src/util/io.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace fa::inject {
namespace {

// In-memory WritableFile so fault-injection semantics can be asserted
// byte-for-byte without touching the filesystem.
class MemoryFile : public io::WritableFile {
 public:
  std::size_t write_some(const void* src, std::size_t n) override {
    const auto* p = static_cast<const std::byte*>(src);
    bytes_.insert(bytes_.end(), p, p + n);
    return n;
  }
  void flush() override { ++flushes_; }
  void close() override { closed_ = true; }
  const std::string& path() const override { return path_; }

  const std::vector<std::byte>& bytes() const { return bytes_; }
  bool closed() const { return closed_; }

 private:
  std::string path_ = "<memory>";
  std::vector<std::byte> bytes_;
  int flushes_ = 0;
  bool closed_ = false;
};

// Fails the first `failures` writes (transient or permanent), then behaves
// like a MemoryFile — direct control over the retry loop under test.
class FlakyFile : public io::WritableFile {
 public:
  FlakyFile(int failures, bool transient)
      : failures_(failures), transient_(transient) {}

  std::size_t write_some(const void* src, std::size_t n) override {
    if (failures_ > 0) {
      --failures_;
      throw io::IoError(path_, bytes_.size(), "injected flaky error",
                        transient_);
    }
    const auto* p = static_cast<const std::byte*>(src);
    bytes_.insert(bytes_.end(), p, p + n);
    return n;
  }
  void close() override {}
  const std::string& path() const override { return path_; }

  const std::vector<std::byte>& bytes() const { return bytes_; }

 private:
  std::string path_ = "<flaky>";
  int failures_;
  bool transient_;
  std::vector<std::byte> bytes_;
};

std::vector<std::byte> pattern_bytes(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(1 + (i % 251));  // never zero
  }
  return out;
}

// ---- RetryPolicy / CheckedWriter (satellite: retry + backoff) ----

TEST(RetryPolicyTest, BackoffScheduleIsBoundedExponential) {
  const io::RetryPolicy policy;  // 1ms, x2, capped at 50ms
  EXPECT_DOUBLE_EQ(policy.backoff_for(0), 0.001);
  EXPECT_DOUBLE_EQ(policy.backoff_for(1), 0.002);
  EXPECT_DOUBLE_EQ(policy.backoff_for(2), 0.004);
  EXPECT_DOUBLE_EQ(policy.backoff_for(5), 0.032);
  EXPECT_DOUBLE_EQ(policy.backoff_for(6), 0.050);   // capped
  EXPECT_DOUBLE_EQ(policy.backoff_for(20), 0.050);  // stays capped
}

TEST(RetryPolicyTest, TransientErrorsAreRetriedOnTheBackoffSchedule) {
  auto file = std::make_unique<FlakyFile>(2, /*transient=*/true);
  const FlakyFile* raw = file.get();
  io::VirtualClock clock;
  io::RetryPolicy policy;
  io::CheckedWriter writer(std::move(file), policy, &clock);

  const std::vector<std::byte> payload = pattern_bytes(64);
  writer.write(payload.data(), payload.size());

  EXPECT_EQ(raw->bytes(), payload);
  // Two transient failures -> two backoff sleeps, in schedule order.
  ASSERT_EQ(clock.slept().size(), 2u);
  EXPECT_DOUBLE_EQ(clock.slept()[0], policy.backoff_for(0));
  EXPECT_DOUBLE_EQ(clock.slept()[1], policy.backoff_for(1));
  EXPECT_DOUBLE_EQ(clock.total(), 0.003);
}

TEST(RetryPolicyTest, ExhaustionRethrowsAsPermanentWithAttemptCount) {
  const std::uint64_t gave_up_before = obs::counter("fa.io.gave_up").value();
  io::VirtualClock clock;
  io::RetryPolicy policy;
  policy.max_attempts = 4;
  io::CheckedWriter writer(
      std::make_unique<FlakyFile>(100, /*transient=*/true), policy, &clock);

  const std::vector<std::byte> payload = pattern_bytes(16);
  try {
    writer.write(payload.data(), payload.size());
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_FALSE(e.transient()) << "escaped errors must be settled";
    EXPECT_NE(std::string(e.what()).find("gave up after 4 attempts"),
              std::string::npos)
        << e.what();
  }
  // max_attempts = 4 -> 3 retries -> 3 sleeps; the 4th failure gives up.
  ASSERT_EQ(clock.slept().size(), 3u);
  EXPECT_DOUBLE_EQ(clock.slept()[0], policy.backoff_for(0));
  EXPECT_DOUBLE_EQ(clock.slept()[1], policy.backoff_for(1));
  EXPECT_DOUBLE_EQ(clock.slept()[2], policy.backoff_for(2));
  EXPECT_EQ(obs::counter("fa.io.gave_up").value(), gave_up_before + 1);
}

TEST(RetryPolicyTest, PermanentErrorsAreNotRetried) {
  io::VirtualClock clock;
  io::CheckedWriter writer(
      std::make_unique<FlakyFile>(1, /*transient=*/false), {}, &clock);
  const std::vector<std::byte> payload = pattern_bytes(16);
  EXPECT_THROW(writer.write(payload.data(), payload.size()), io::IoError);
  EXPECT_TRUE(clock.slept().empty()) << "permanent errors must fail fast";
}

// ---- FaultyFile write-side faults ----

TEST(FaultyFileTest, ShortWritesLoopToCompletion) {
  IoFaultConfig config;
  config.seed = 7;
  config.short_write_rate = 1.0;  // every multi-byte write comes up short
  IoFaultLog log;
  auto memory = std::make_unique<MemoryFile>();
  const MemoryFile* raw = memory.get();
  io::CheckedWriter writer(
      std::make_unique<FaultyFile>(std::move(memory), config, &log));

  const std::vector<std::byte> payload = pattern_bytes(4096);
  writer.write(payload.data(), payload.size());
  writer.flush();
  writer.close();

  EXPECT_EQ(raw->bytes(), payload) << "short writes lost or reordered bytes";
  EXPECT_TRUE(raw->closed());
  EXPECT_GT(log.events.size(), 1u) << "expected several short-write events";
  for (const IoFaultEvent& e : log.events) {
    EXPECT_EQ(e.kind, IoFaultEvent::Kind::kShortWrite);
    EXPECT_GE(e.detail, 1u);
  }
}

TEST(FaultyFileTest, TransientStreakIsCappedSoRetriesEventuallyWin) {
  IoFaultConfig config;
  config.seed = 3;
  config.transient_write_rate = 1.0;  // would fail forever without the cap
  config.max_transient_streak = 2;
  IoFaultLog log;
  auto memory = std::make_unique<MemoryFile>();
  const MemoryFile* raw = memory.get();
  io::VirtualClock clock;
  io::RetryPolicy policy;  // max_attempts 4 > streak cap 2
  io::CheckedWriter writer(
      std::make_unique<FaultyFile>(std::move(memory), config, &log), policy,
      &clock);

  const std::vector<std::byte> payload = pattern_bytes(256);
  writer.write(payload.data(), payload.size());
  EXPECT_EQ(raw->bytes(), payload);
  EXPECT_EQ(clock.slept().size(), 2u) << "one backoff per transient failure";
}

TEST(FaultyFileTest, CrashAtByteLeavesTheExactPrefix) {
  constexpr std::uint64_t kCrashAt = 1000;
  IoFaultConfig config;
  config.crash_at_byte = kCrashAt;
  IoFaultLog log;
  auto memory = std::make_unique<MemoryFile>();
  const MemoryFile* raw = memory.get();
  FaultyFile file(std::move(memory), config, &log);

  const std::vector<std::byte> payload = pattern_bytes(4096);
  std::size_t written = 0;
  // Feed 300-byte slices: the fourth slice crosses the crash offset.
  try {
    while (written < payload.size()) {
      const std::size_t n = std::min<std::size_t>(300, payload.size() - written);
      written += file.write_some(payload.data() + written, n);
    }
    FAIL() << "expected InjectedCrash";
  } catch (const InjectedCrash& e) {
    EXPECT_EQ(e.offset(), kCrashAt);
    EXPECT_FALSE(e.transient()) << "a crash must not be retried away";
  }

  ASSERT_EQ(raw->bytes().size(), kCrashAt);
  EXPECT_TRUE(std::memcmp(raw->bytes().data(), payload.data(), kCrashAt) == 0)
      << "pre-crash prefix was not persisted verbatim";
  // The "process" is gone: every later operation fails too.
  EXPECT_THROW(file.write_some(payload.data(), 1), InjectedCrash);
  EXPECT_THROW(file.flush(), InjectedCrash);
  ASSERT_FALSE(log.events.empty());
  EXPECT_EQ(log.events.back().kind, IoFaultEvent::Kind::kCrash);
}

TEST(FaultyFileTest, TornWriteReportsSuccessButZeroesASubRange) {
  IoFaultConfig config;
  config.seed = 11;
  config.torn_write_rate = 1.0;
  IoFaultLog log;
  auto memory = std::make_unique<MemoryFile>();
  const MemoryFile* raw = memory.get();
  io::CheckedWriter writer(
      std::make_unique<FaultyFile>(std::move(memory), config, &log));

  const std::vector<std::byte> payload = pattern_bytes(512);  // no zero bytes
  writer.write(payload.data(), payload.size());

  // The caller saw success and no bytes are missing...
  ASSERT_EQ(raw->bytes().size(), payload.size());
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].kind, IoFaultEvent::Kind::kTornWrite);
  // ...but a contiguous sub-range of `detail` bytes reached disk as zeros.
  std::size_t zeroed = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (raw->bytes()[i] == std::byte{0}) {
      ++zeroed;
      EXPECT_NE(raw->bytes()[i], payload[i]);
    } else {
      EXPECT_EQ(raw->bytes()[i], payload[i]);
    }
  }
  EXPECT_EQ(zeroed, log.events[0].detail);
  EXPECT_GE(zeroed, 1u);
}

// ---- FaultyReadFile read-side faults ----

TEST(FaultyReadFileTest, BitFlipsSpareSmallReadsAndCorruptLargeOnes) {
  // Back the reader with a real temp file.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fa_io_faults_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const std::vector<std::byte> payload = pattern_bytes(4096);
  {
    io::CheckedWriter out(std::make_unique<io::PosixWritableFile>(path));
    out.write(payload.data(), payload.size());
    out.close();
  }

  IoFaultConfig config;
  config.seed = 5;
  config.bit_flip_rate = 1.0;
  config.bit_flip_min_read = 64;
  IoFaultLog log;
  FaultyReadFile file(std::make_unique<io::PosixReadableFile>(path), config,
                      &log);

  // Small read (below bit_flip_min_read): returned verbatim.
  std::array<std::byte, 16> small{};
  ASSERT_EQ(file.read_some(0, small.data(), small.size()), small.size());
  EXPECT_TRUE(std::memcmp(small.data(), payload.data(), small.size()) == 0);
  EXPECT_TRUE(log.events.empty());

  // Large read: exactly one bit differs; the file itself is untouched.
  std::vector<std::byte> large(1024);
  ASSERT_EQ(file.read_some(0, large.data(), large.size()), large.size());
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].kind, IoFaultEvent::Kind::kBitFlip);
  std::size_t bits_differing = 0;
  for (std::size_t i = 0; i < large.size(); ++i) {
    std::uint8_t diff = static_cast<std::uint8_t>(large[i]) ^
                        static_cast<std::uint8_t>(payload[i]);
    while (diff != 0) {
      bits_differing += diff & 1u;
      diff >>= 1u;
    }
  }
  EXPECT_EQ(bits_differing, 1u);

  std::vector<std::byte> reread(1024);
  io::CheckedReader clean(std::make_unique<io::PosixReadableFile>(path));
  clean.read_at(0, reread.data(), reread.size());
  EXPECT_TRUE(std::memcmp(reread.data(), payload.data(), reread.size()) == 0)
      << "bit flip must corrupt the returned buffer, not the file";
  std::filesystem::remove(path);
}

TEST(FaultyReadFileTest, TransientReadErrorsRespectTheStreakCap) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fa_io_faults_r_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const std::vector<std::byte> payload = pattern_bytes(256);
  {
    io::CheckedWriter out(std::make_unique<io::PosixWritableFile>(path));
    out.write(payload.data(), payload.size());
    out.close();
  }

  IoFaultConfig config;
  config.seed = 9;
  config.transient_read_rate = 1.0;
  config.max_transient_streak = 2;
  io::VirtualClock clock;
  io::CheckedReader reader(
      std::make_unique<FaultyReadFile>(
          std::make_unique<io::PosixReadableFile>(path), config),
      io::RetryPolicy{}, &clock);

  std::vector<std::byte> got(payload.size());
  reader.read_at(0, got.data(), got.size());
  EXPECT_EQ(got, payload);
  EXPECT_EQ(clock.slept().size(), 2u);
  std::filesystem::remove(path);
}

// ---- determinism (acceptance: schedules bit-identical at any --threads) ----

// The fault schedule is a pure function of (seed, op index), so streaming
// the same database through the injector at 1 and 8 worker threads must
// produce byte-identical fault logs and byte-identical files.
TEST(IoFaultDeterminismTest, FaultScheduleIsThreadCountInvariant) {
  const trace::TraceDatabase& db = fa::testing::small_simulated_db();

  const auto run = [&](std::size_t threads) {
    ThreadPool::set_default_thread_count(threads);
    IoFaultConfig config;
    config.seed = 42;
    config.short_write_rate = 0.2;
    config.torn_write_rate = 0.05;
    IoFaultLog log;
    auto memory = std::make_unique<MemoryFile>();
    const MemoryFile* raw = memory.get();
    trace::WriterOptions options;
    options.chunk_rows = 512;
    trace::ColumnarWriter writer(
        std::make_unique<FaultyFile>(std::move(memory), config, &log),
        options);
    write_columnar(db, writer);
    writer.finish();
    ThreadPool::set_default_thread_count(0);
    return std::pair<std::string, std::vector<std::byte>>(log.to_csv(),
                                                          raw->bytes());
  };

  const auto [csv1, bytes1] = run(1);
  const auto [csv8, bytes8] = run(8);
  EXPECT_GT(csv1.size(), std::string("op,kind,offset,detail\n").size())
      << "expected a non-empty fault schedule";
  EXPECT_EQ(csv1, csv8) << "fault schedule depends on thread count";
  EXPECT_EQ(bytes1, bytes8) << "faulted output depends on thread count";
}

}  // namespace
}  // namespace fa::inject
