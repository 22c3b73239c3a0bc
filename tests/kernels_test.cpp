#include <gtest/gtest.h>

#include <set>

#include "memx/kernels/benchmarks.hpp"
#include "memx/util/assert.hpp"
#include "memx/kernels/mpeg_kernels.hpp"
#include "memx/kernels/registry.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/trace/trace_stats.hpp"

namespace memx {
namespace {

TEST(Benchmarks, CompressShapeMatchesPaper) {
  const Kernel k = compressKernel();
  EXPECT_EQ(k.name, "compress");
  EXPECT_EQ(k.nest.iterationCount(), 961u);  // 31 x 31
  EXPECT_EQ(k.body.size(), 5u);              // 4 reads + 1 write
  EXPECT_EQ(k.referenceCount(), 4805u);
}

TEST(Benchmarks, CompressTraceStaysInArray) {
  const Kernel k = compressKernel();
  const Trace t = generateTrace(k);
  const TraceStats s = computeStats(t);
  EXPECT_EQ(s.total, 4805u);
  EXPECT_LT(s.maxAddr, 32u * 32u * 4u);
  EXPECT_EQ(s.writes, 961u);
}

TEST(Benchmarks, MatMulShape) {
  const Kernel k = matMulKernel();
  EXPECT_EQ(k.nest.iterationCount(), 31u * 31u * 31u);
  EXPECT_EQ(k.body.size(), 4u);
  EXPECT_EQ(k.arrays.size(), 3u);
}

TEST(Benchmarks, MatrixAddMatchesPaperExample) {
  const Kernel k = matrixAddKernel(6, 1);
  EXPECT_EQ(k.nest.iterationCount(), 36u);
  EXPECT_EQ(k.arrays[0].sizeBytes(), 36u);
  const Trace t = generateTrace(k);
  EXPECT_EQ(t.size(), 108u);
}

TEST(Benchmarks, PdeShape) {
  const Kernel k = pdeKernel();
  EXPECT_EQ(k.nest.iterationCount(), 961u);
  EXPECT_EQ(k.body.size(), 5u);
  EXPECT_EQ(k.arrays.size(), 2u);
  // Stencil touches rows i-1..i+1: needs extents >= 33.
  EXPECT_NO_THROW(generateTrace(k));
}

TEST(Benchmarks, SorShape) {
  const Kernel k = sorKernel();
  EXPECT_EQ(k.nest.iterationCount(), 961u);
  EXPECT_EQ(k.body.size(), 6u);
  EXPECT_EQ(k.arrays.size(), 1u);
  EXPECT_NO_THROW(generateTrace(k));
}

TEST(Benchmarks, DequantShape) {
  const Kernel k = dequantKernel();
  EXPECT_EQ(k.nest.iterationCount(), 961u);
  EXPECT_EQ(k.arrays.size(), 3u);
}

TEST(Benchmarks, TransposeReadsColumnWise) {
  const Kernel k = transposeKernel(8);
  const Trace t = generateTrace(k);
  // First two b-reads (even indices 0 and 2) are a column apart: 8*4.
  EXPECT_EQ(t[2].addr - t[0].addr, 32u);
}

TEST(Benchmarks, PaperBenchmarksOrder) {
  const std::vector<Kernel> ks = paperBenchmarks();
  ASSERT_EQ(ks.size(), 5u);
  EXPECT_EQ(ks[0].name, "compress");
  EXPECT_EQ(ks[1].name, "matmul");
  EXPECT_EQ(ks[2].name, "pde");
  EXPECT_EQ(ks[3].name, "sor");
  EXPECT_EQ(ks[4].name, "dequant");
  for (const Kernel& k : ks) EXPECT_NO_THROW(k.validate());
}

TEST(Benchmarks, FactoriesRejectTinyGrids) {
  EXPECT_THROW(compressKernel(1), ContractViolation);
  EXPECT_THROW(pdeKernel(2), ContractViolation);
}

TEST(MpegKernels, AllNineValidateAndTrace) {
  const auto ks = mpegDecoderKernels();
  ASSERT_EQ(ks.size(), 9u);
  const char* names[] = {"VLD",     "Dequant", "IDCT",  "Plus", "Display",
                         "Store",   "Addr",    "Fetch", "Compute"};
  for (std::size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(ks[i].kernel.name, names[i]);
    EXPECT_GE(ks[i].trips, 1u);
    EXPECT_NO_THROW(generateTrace(ks[i].kernel)) << names[i];
  }
}

TEST(MpegKernels, VldHasIndirectLookup) {
  const Kernel k = mpegVldKernel();
  bool indirect = false;
  for (const ArrayAccess& a : k.body) {
    if (!a.isAffine()) indirect = true;
  }
  EXPECT_TRUE(indirect);
}

TEST(MpegKernels, DisplayIsSequential) {
  const Kernel k = mpegDisplayKernel();
  const Trace t = generateTrace(k);
  // Reads at even indices walk bytes sequentially.
  EXPECT_EQ(t[2].addr - t[0].addr, 1u);
  EXPECT_EQ(t[4].addr - t[2].addr, 1u);
}

TEST(MpegKernels, IdctReadsTransposed) {
  const Kernel k = mpegIdctKernel();
  const Trace t = generateTrace(k);
  // Consecutive blk reads are a row (8 elements x 2 bytes) apart.
  EXPECT_EQ(t[3].addr - t[0].addr, 16u);
}

TEST(MpegKernels, FetchOffsetsIntoReferenceFrame) {
  const Kernel k = mpegFetchKernel();
  const Trace t = generateTrace(k);
  // First read is refframe[1][1] = 41 bytes into the 40-wide frame.
  EXPECT_EQ(t[0].addr, 41u);
}

TEST(MpegKernels, DistinctWorkloadSizes) {
  // The kernels must differ enough to pull exploration different ways.
  const auto ks = mpegDecoderKernels();
  std::set<std::uint64_t> sizes;
  for (const auto& wk : ks) sizes.insert(wk.kernel.referenceCount());
  EXPECT_GE(sizes.size(), 5u);
}

TEST(KernelRegistry, OneRuleSaysWhatIsAKernelFile) {
  for (const char* path : {"a.mx", "dir/matmul", "/tmp/a,b.mx", "./x"}) {
    EXPECT_TRUE(isKernelPath(path)) << path;
  }
  for (const char* name : {"matmul", ".mx", "a.mxx", "mx", ""}) {
    EXPECT_FALSE(isKernelPath(name)) << name;
  }
  // Every registered name resolves through the registry, not the disk.
  for (const std::string& name : kernelRegistryNames()) {
    EXPECT_FALSE(isKernelPath(name)) << name;
    EXPECT_EQ(kernelByNameOrPath(name).name, registeredKernel(name).name);
  }
  EXPECT_THROW((void)kernelByNameOrPath("no/such/kernel.mx"),
               ContractViolation);
}

}  // namespace
}  // namespace memx
