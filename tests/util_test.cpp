#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"
#include "memx/util/pow2_range.hpp"
#include "memx/util/worker_set.hpp"

namespace memx {
namespace {

TEST(Bits, IsPow2RecognizesPowers) {
  EXPECT_TRUE(isPow2(1));
  EXPECT_TRUE(isPow2(2));
  EXPECT_TRUE(isPow2(64));
  EXPECT_TRUE(isPow2(1ull << 40));
}

TEST(Bits, IsPow2RejectsNonPowers) {
  EXPECT_FALSE(isPow2(0));
  EXPECT_FALSE(isPow2(3));
  EXPECT_FALSE(isPow2(6));
  EXPECT_FALSE(isPow2(36));
}

TEST(Bits, Log2ExactOnPowers) {
  EXPECT_EQ(log2Exact(1), 0u);
  EXPECT_EQ(log2Exact(2), 1u);
  EXPECT_EQ(log2Exact(1024), 10u);
}

TEST(Bits, Log2Floor) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(7), 2u);
  EXPECT_EQ(log2Floor(8), 3u);
  EXPECT_EQ(log2Floor(9), 3u);
}

TEST(Bits, GrayCodeRoundTrips) {
  for (std::uint64_t v = 0; v < 1000; ++v) {
    EXPECT_EQ(grayDecode(grayEncode(v)), v);
  }
}

TEST(Bits, GrayAdjacentValuesDifferInOneBit) {
  for (std::uint64_t v = 0; v < 1000; ++v) {
    EXPECT_EQ(hammingDistance(grayEncode(v), grayEncode(v + 1)), 1u);
  }
}

TEST(Bits, HammingDistanceCountsDifferingBits) {
  EXPECT_EQ(hammingDistance(0, 0), 0u);
  EXPECT_EQ(hammingDistance(0b1010, 0b0101), 4u);
  EXPECT_EQ(hammingDistance(0xFF, 0x0F), 4u);
}

TEST(Bits, AlignUp) {
  EXPECT_EQ(alignUp(0, 8), 0u);
  EXPECT_EQ(alignUp(1, 8), 8u);
  EXPECT_EQ(alignUp(8, 8), 8u);
  EXPECT_EQ(alignUp(9, 4), 12u);
}

TEST(Pow2Range, InclusiveEndpoints) {
  const auto r = pow2Range(4, 64);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r.front(), 4u);
  EXPECT_EQ(r.back(), 64u);
}

TEST(Pow2Range, SingleElement) {
  const auto r = pow2Range(16, 16);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 16u);
}

TEST(Pow2Range, TopBitBoundaryTerminates) {
  // Regression: with hi == 2^63 the old overflow guard (`v != hi` on the
  // break) skipped the break on the last iteration, `v <<= 1` wrapped to
  // 0, and the loop appended 0 forever.
  const std::uint64_t top = 1ull << 63;

  const auto single = pow2Range(top, top);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], top);

  const auto pair = pow2Range(1ull << 62, top);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0], 1ull << 62);
  EXPECT_EQ(pair[1], top);

  const auto full = pow2Range(1, top);
  ASSERT_EQ(full.size(), 64u);
  EXPECT_EQ(full.front(), 1u);
  EXPECT_EQ(full.back(), top);
}

TEST(Pow2Range, RejectsNonPowerBounds) {
  EXPECT_THROW(pow2Range(3, 16), ContractViolation);
  EXPECT_THROW(pow2Range(4, 17), ContractViolation);
}

TEST(Pow2Range, RejectsInvertedBounds) {
  EXPECT_THROW(pow2Range(32, 16), ContractViolation);
}

TEST(Contracts, ExpectsThrowsWithContext) {
  try {
    MEMX_EXPECTS(false, "something went wrong");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("something went wrong"), std::string::npos);
    EXPECT_NE(what.find("precondition"), std::string::npos);
  }
}

TEST(Contracts, EnsuresThrowsPostcondition) {
  try {
    MEMX_ENSURES(false, "invariant broken");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("postcondition"), std::string::npos);
  }
}

// --- WorkerSet ----------------------------------------------------------

/// Threads of this process, or nullopt where /proc/self/task is absent.
std::optional<std::size_t> processThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  std::size_t n = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++n;
  return n;
}

TEST(WorkerSet, RunsTheBodyOncePerThreadWithTheCallerAsThreadZero) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    WorkerSet set(n);
    std::vector<std::atomic<int>> calls(n);
    std::vector<std::thread::id> ids(n);
    std::atomic<bool> outOfRange{false};
    set.run([&](std::size_t t) {
      if (t >= n) {
        outOfRange = true;
        return;
      }
      ++calls[t];
      ids[t] = std::this_thread::get_id();
    });
    EXPECT_FALSE(outOfRange);
    for (std::size_t t = 0; t < n; ++t) EXPECT_EQ(calls[t], 1) << t;
    EXPECT_EQ(ids[0], std::this_thread::get_id());
    EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()).size(), n);
  }
}

TEST(WorkerSet, EachThreadKeepsItsIdAcrossRuns) {
  constexpr std::size_t kThreads = 3;
  WorkerSet set(kThreads);
  std::vector<std::thread::id> first(kThreads);
  set.run([&](std::size_t t) { first[t] = std::this_thread::get_id(); });
  // Each slot is touched only by its own thread; run() orders the rest.
  std::vector<std::size_t> same(kThreads, 0);
  for (int r = 0; r < 100; ++r) {
    set.run([&](std::size_t t) {
      if (std::this_thread::get_id() == first[t]) ++same[t];
    });
  }
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(same[t], 100u) << t;
}

TEST(WorkerSet, RethrowsTheLowestThreadsExceptionAfterEveryBodyReturned) {
  WorkerSet set(4);
  std::atomic<bool> twoThrowing{false};
  std::vector<std::atomic<bool>> returned(4);
  try {
    set.run([&](std::size_t t) {
      if (t == 2) {
        returned[t] = true;
        twoThrowing = true;
        throw std::runtime_error("thread 2 failed");
      }
      if (t == 1) {
        // Throw after thread 2 has: the lower thread still wins.
        while (!twoThrowing) std::this_thread::yield();
        returned[t] = true;
        throw std::runtime_error("thread 1 failed");
      }
      // A slow body: run() must not rethrow before it returns.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      returned[t] = true;
    });
    ADD_FAILURE() << "exception swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thread 1 failed");
  }
  for (std::size_t t = 0; t < 4; ++t) EXPECT_TRUE(returned[t]) << t;

  // The set survives a failed run: every thread runs the next body, and
  // the old exceptions are gone.
  std::atomic<int> calls{0};
  EXPECT_NO_THROW(set.run([&](std::size_t) { ++calls; }));
  EXPECT_EQ(calls, 4);
}

TEST(WorkerSet, OneThreadStartsNone) {
  const std::optional<std::size_t> before = processThreads();
  {
    WorkerSet set(1);
    if (before) {
      EXPECT_EQ(processThreads(), before);
    }
    std::thread::id ran;
    set.run([&](std::size_t t) {
      EXPECT_EQ(t, 0u);
      ran = std::this_thread::get_id();
    });
    EXPECT_EQ(ran, std::this_thread::get_id());
    // Without helpers the body's exception passes straight through.
    EXPECT_THROW(set.run([](std::size_t) { throw std::logic_error("x"); }),
                 std::logic_error);
  }
  if (before) {
    // A set of three starts two helpers and joins them on destruction.
    {
      const WorkerSet set(3);
      EXPECT_EQ(processThreads(), *before + 2);
    }
    EXPECT_EQ(processThreads(), before);
  }
}

TEST(WorkerSet, RejectsAnEmptySet) {
  EXPECT_THROW(WorkerSet(0), ContractViolation);
}

}  // namespace
}  // namespace memx
