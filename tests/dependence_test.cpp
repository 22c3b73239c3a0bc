#include <gtest/gtest.h>

#include "memx/kernels/benchmarks.hpp"
#include "memx/util/assert.hpp"
#include "memx/xform/dependence.hpp"

namespace memx {
namespace {

AffineExpr I(std::int64_t c = 0) { return AffineExpr::var(0).plusConstant(c); }
AffineExpr J(std::int64_t c = 0) { return AffineExpr::var(1).plusConstant(c); }

/// a[i][j] = a[i-1][j] over n x n (classic flow dependence (1,0)).
Kernel flowKernel(std::int64_t n = 8) {
  Kernel k;
  k.name = "flow";
  k.arrays = {ArrayDecl{"a", {n, n}, 1}};
  k.nest = LoopNest::rectangular({{1, n - 1}, {0, n - 1}});
  k.body = {makeAccess(0, {I(-1), J()}),
            makeAccess(0, {I(), J()}, AccessType::Write)};
  return k;
}

/// a[i][j] = a[i+1][j] (anti dependence (1,0): reads before overwrite).
Kernel antiKernel(std::int64_t n = 8) {
  Kernel k;
  k.name = "anti";
  k.arrays = {ArrayDecl{"a", {n, n}, 1}};
  k.nest = LoopNest::rectangular({{0, n - 2}, {0, n - 1}});
  k.body = {makeAccess(0, {I(+1), J()}),
            makeAccess(0, {I(), J()}, AccessType::Write)};
  return k;
}

/// a[i][j] = a[i][j+1] with the dependence carried NEGATIVELY by an
/// interchange candidate: distance (0,1) anti.
Kernel rowAntiKernel(std::int64_t n = 8) {
  Kernel k;
  k.name = "rowanti";
  k.arrays = {ArrayDecl{"a", {n, n}, 1}};
  k.nest = LoopNest::rectangular({{0, n - 1}, {0, n - 2}});
  k.body = {makeAccess(0, {I(), J(+1)}),
            makeAccess(0, {I(), J()}, AccessType::Write)};
  return k;
}

TEST(Dependence, CompressDistancesArePositive) {
  const auto deps = computeDependences(compressKernel());
  EXPECT_FALSE(deps.empty());
  for (const Dependence& d : deps) {
    EXPECT_TRUE(d.isDistanceVector());
    EXPECT_TRUE(d.lexNonNegative());
  }
}

TEST(Dependence, FlowKernelCarriesDistanceOneZero) {
  const auto deps = computeDependences(flowKernel());
  bool found = false;
  for (const Dependence& d : deps) {
    if (d.kind == DepKind::Flow && d.isDistanceVector() &&
        d.distance.size() >= 2 && *d.distance[0].value == 1 &&
        *d.distance[1].value == 0) {
      found = true;
      // Source is the write, destination the read.
      EXPECT_EQ(d.srcAccess, 1u);
      EXPECT_EQ(d.dstAccess, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Dependence, AntiKernelClassified) {
  const auto deps = computeDependences(antiKernel());
  bool found = false;
  for (const Dependence& d : deps) {
    if (d.kind == DepKind::Anti && d.isDistanceVector() &&
        *d.distance[0].value == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Dependence, IndependentArraysHaveNoDeps) {
  // transpose: reads b, writes a — no shared array, no dependences.
  EXPECT_TRUE(computeDependences(transposeKernel(8)).empty());
}

TEST(Dependence, ReadOnlyPairsIgnored) {
  const auto deps = computeDependences(pdeKernel());
  for (const Dependence& d : deps) {
    const Kernel k = pdeKernel();
    const bool srcW = k.body[d.srcAccess].type == AccessType::Write;
    const bool dstW = k.body[d.dstAccess].type == AccessType::Write;
    EXPECT_TRUE(srcW || dstW);
  }
}

TEST(Dependence, OutputDependenceOnRepeatedWrite) {
  // matmul writes c[i][j] every k iteration: output dep with k-distance
  // unconstrained is pinned to 0 on i/j.
  const auto deps = computeDependences(matMulKernel(4));
  bool foundOutput = false;
  for (const Dependence& d : deps) {
    if (d.kind == DepKind::Output) foundOutput = true;
  }
  EXPECT_TRUE(foundOutput);
}

TEST(Dependence, IndirectAccessIsConservative) {
  Kernel k;
  k.name = "indirect";
  k.arrays = {ArrayDecl{"t", {64}, 4}};
  k.nest = LoopNest::rectangular({{0, 15}});
  ArrayAccess gather;
  gather.arrayIndex = 0;
  gather.subscripts = {AffineExpr(0)};
  gather.indirectSeed = 3;
  k.body = {gather, makeAccess(0, {AffineExpr::var(0)},
                               AccessType::Write)};
  const auto deps = computeDependences(k);
  ASSERT_FALSE(deps.empty());
  EXPECT_FALSE(deps.front().isDistanceVector());
  EXPECT_FALSE(deps.front().lexNonNegative());
}

TEST(Legality, TilingLegalOnPaperKernels) {
  // All five benchmarks have non-negative distances: rectangular tiling
  // of the outer two loops is legal — which is why the paper can tile
  // them.
  for (const Kernel& k : paperBenchmarks()) {
    EXPECT_TRUE(tilingIsLegal(k)) << k.name;
  }
  EXPECT_TRUE(tilingIsLegal(transposeKernel(8)));
}

TEST(Legality, TilingIllegalWithUnknownDistances) {
  Kernel k;
  k.name = "gatherwrite";
  k.arrays = {ArrayDecl{"t", {64}, 4}};
  k.nest = LoopNest::rectangular({{0, 15}, {0, 3}});
  ArrayAccess gather;
  gather.arrayIndex = 0;
  gather.subscripts = {AffineExpr(0)};
  gather.indirectSeed = 9;
  k.body = {gather,
            makeAccess(0, {AffineExpr::var(0)}, AccessType::Write)};
  EXPECT_FALSE(tilingIsLegal(k));
}

TEST(Legality, OneDeepNestNotTileable) {
  Kernel k;
  k.name = "onedeep";
  k.arrays = {ArrayDecl{"a", {8}, 4}};
  k.nest = LoopNest::rectangular({{0, 7}});
  k.body = {makeAccess(0, {AffineExpr::var(0)}, AccessType::Write)};
  EXPECT_FALSE(tilingIsLegal(k));
}

TEST(Legality, InterchangeLegalForSymmetricStencil) {
  EXPECT_TRUE(interchangeIsLegal(compressKernel(), 0, 1));
  EXPECT_TRUE(interchangeIsLegal(transposeKernel(8), 0, 1));
}

TEST(Legality, InterchangeRejectsOutOfRange) {
  EXPECT_THROW((void)interchangeIsLegal(compressKernel(), 0, 5),
               ContractViolation);
}

TEST(Dependence, RowAntiInterchangeStillLegal) {
  // Distance (0,1): swapping loops gives (1,0) — still lexicographically
  // positive, so interchange is legal here.
  EXPECT_TRUE(interchangeIsLegal(rowAntiKernel(), 0, 1));
}

TEST(Dependence, ToStringNames) {
  EXPECT_EQ(toString(DepKind::Flow), "flow");
  EXPECT_EQ(toString(DepKind::Anti), "anti");
  EXPECT_EQ(toString(DepKind::Output), "output");
}

}  // namespace
}  // namespace memx
