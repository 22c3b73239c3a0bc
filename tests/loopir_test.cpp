#include <gtest/gtest.h>

#include "memx/loopir/affine.hpp"
#include "memx/loopir/kernel.hpp"
#include "memx/loopir/loop_nest.hpp"
#include "memx/loopir/memory_layout.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

TEST(AffineExpr, ConstantEval) {
  const AffineExpr e(7);
  EXPECT_EQ(e.eval({}), 7);
  EXPECT_TRUE(e.isConstant());
}

TEST(AffineExpr, VarEval) {
  const AffineExpr e = AffineExpr::var(1, 3);
  const std::int64_t iv[] = {10, 20};
  EXPECT_EQ(e.eval(iv), 60);
  EXPECT_FALSE(e.isConstant());
}

TEST(AffineExpr, PlusCombines) {
  const AffineExpr e =
      AffineExpr::var(0).plus(AffineExpr::var(2, 2)).plusConstant(-1);
  const std::int64_t iv[] = {5, 9, 3};
  EXPECT_EQ(e.eval(iv), 5 + 6 - 1);
}

TEST(AffineExpr, CoeffBeyondStorageIsZero) {
  const AffineExpr e = AffineExpr::var(0);
  EXPECT_EQ(e.coeff(0), 1);
  EXPECT_EQ(e.coeff(5), 0);
}

TEST(AffineExpr, EvalThrowsWhenIterationVectorTooShort) {
  const AffineExpr e = AffineExpr::var(2);
  const std::int64_t iv[] = {1, 2};
  EXPECT_THROW((void)e.eval(iv), ContractViolation);
}

TEST(AffineExpr, ToStringReadable) {
  EXPECT_EQ(AffineExpr(5).toString(), "5");
  EXPECT_EQ(AffineExpr::var(0).plusConstant(-1).toString(), "i0 - 1");
  EXPECT_EQ(AffineExpr(0, {2, 0, 1}).toString(), "2*i0 + i2");
}

TEST(LoopNest, RectangularIteratesLexicographically) {
  const LoopNest nest = LoopNest::rectangular({{0, 1}, {0, 2}});
  std::vector<std::vector<std::int64_t>> seen;
  nest.forEachIteration([&](std::span<const std::int64_t> iv) {
    seen.emplace_back(iv.begin(), iv.end());
  });
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen.front(), (std::vector<std::int64_t>{0, 0}));
  EXPECT_EQ(seen[1], (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(seen.back(), (std::vector<std::int64_t>{1, 2}));
}

TEST(LoopNest, IterationCountMatches) {
  EXPECT_EQ(LoopNest::rectangular({{1, 31}, {1, 31}}).iterationCount(),
            961u);
  EXPECT_EQ(LoopNest::rectangular({{0, 0}}).iterationCount(), 1u);
}

TEST(LoopNest, EmptyRangeYieldsNoIterations) {
  EXPECT_EQ(LoopNest::rectangular({{5, 4}}).iterationCount(), 0u);
}

TEST(LoopNest, SteppedLoop) {
  Loop l;
  l.name = "i";
  l.lower = LoopBound(0);
  l.upper = LoopBound(9);
  l.step = 3;
  const LoopNest nest({l});
  std::vector<std::int64_t> seen;
  nest.forEachIteration(
      [&](std::span<const std::int64_t> iv) { seen.push_back(iv[0]); });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 3, 6, 9}));
}

TEST(LoopNest, MinClampedUpperBound) {
  // for t = 0, 9, 4 ; for i = t, min(t+3, 9)
  Loop outer;
  outer.name = "t";
  outer.lower = LoopBound(0);
  outer.upper = LoopBound(9);
  outer.step = 4;
  Loop inner;
  inner.name = "i";
  inner.lower = LoopBound(AffineExpr::var(0));
  inner.upper = LoopBound{AffineExpr::var(0).plusConstant(3), AffineExpr(9)};
  const LoopNest nest({outer, inner});
  EXPECT_EQ(nest.iterationCount(), 10u);  // 4 + 4 + 2
}

TEST(LoopNest, RejectsNonPositiveStep) {
  Loop l;
  l.lower = LoopBound(0);
  l.upper = LoopBound(3);
  l.step = 0;
  EXPECT_THROW(LoopNest({l}), ContractViolation);
  l.step = -1;
  EXPECT_THROW(LoopNest({l}), ContractViolation);
}

TEST(ArrayDecl, SizesComputed) {
  const ArrayDecl d{"a", {6, 6}, 1};
  EXPECT_EQ(d.elemCount(), 36u);
  EXPECT_EQ(d.sizeBytes(), 36u);
  EXPECT_EQ(d.rank(), 2u);
}

TEST(Kernel, ValidateCatchesBadAccess) {
  Kernel k;
  k.name = "bad";
  k.arrays = {ArrayDecl{"a", {4, 4}, 4}};
  k.nest = LoopNest::rectangular({{0, 3}});
  k.body = {makeAccess(1, {AffineExpr(0), AffineExpr(0)})};
  EXPECT_THROW(k.validate(), ContractViolation);  // array index 1
  k.body = {makeAccess(0, {AffineExpr(0)})};
  EXPECT_THROW(k.validate(), ContractViolation);  // rank mismatch
}

TEST(Kernel, ArrayIndexOf) {
  Kernel k;
  k.arrays = {ArrayDecl{"a", {4}, 4}, ArrayDecl{"b", {4}, 4}};
  EXPECT_EQ(k.arrayIndexOf("b"), 1u);
  EXPECT_THROW((void)k.arrayIndexOf("z"), ContractViolation);
}

TEST(MemoryLayout, TightRowMajorAddressing) {
  Kernel k;
  k.name = "t";
  k.arrays = {ArrayDecl{"a", {4, 8}, 4}, ArrayDecl{"b", {2, 2}, 4}};
  k.nest = LoopNest::rectangular({{0, 0}});
  k.body = {makeAccess(0, {AffineExpr(0), AffineExpr(0)})};
  const MemoryLayout layout = MemoryLayout::tight(k, 100);
  const std::int64_t s00[] = {0, 0};
  const std::int64_t s13[] = {1, 3};
  EXPECT_EQ(layout.address(0, s00), 100u);
  EXPECT_EQ(layout.address(0, s13), 100u + (8 + 3) * 4u);
  // b starts right after a (4*8*4 bytes).
  const std::int64_t b00[] = {0, 0};
  EXPECT_EQ(layout.address(1, b00), 100u + 128u);
  EXPECT_EQ(layout.endAddr(k), 100u + 128u + 16u);
}

TEST(MemoryLayout, RowPitchPadding) {
  const ArrayDecl d{"a", {4, 8}, 4};  // tight row = 32 bytes
  const auto pitches = rowMajorPitches(d, 40);
  EXPECT_EQ(pitches[0], 40u);
  EXPECT_EQ(pitches[1], 4u);
  EXPECT_THROW(rowMajorPitches(d, 16), ContractViolation);  // too small
}

TEST(MemoryLayout, SpanIncludesPadding) {
  const ArrayDecl d{"a", {4, 8}, 4};
  ArrayPlacement p;
  p.baseAddr = 0;
  p.pitches = rowMajorPitches(d, 40);
  EXPECT_EQ(p.spanBytes(d), 3u * 40u + 7u * 4u + 4u);
}

TEST(TraceGen, EmitsBodyInProgramOrder) {
  Kernel k;
  k.name = "t";
  k.arrays = {ArrayDecl{"a", {8}, 4}, ArrayDecl{"b", {8}, 4}};
  k.nest = LoopNest::rectangular({{0, 2}});
  k.body = {makeAccess(0, {AffineExpr::var(0)}),
            makeAccess(1, {AffineExpr::var(0)}, AccessType::Write)};
  const Trace t = generateTrace(k);
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t[0].addr, 0u);           // a[0]
  EXPECT_EQ(t[1].addr, 32u);          // b[0]
  EXPECT_EQ(t[1].type, AccessType::Write);
  EXPECT_EQ(t[4].addr, 8u);           // a[2]
  EXPECT_EQ(t[5].addr, 40u);          // b[2]
}

TEST(TraceGen, OutOfBoundsSubscriptThrows) {
  Kernel k;
  k.name = "t";
  k.arrays = {ArrayDecl{"a", {4}, 4}};
  k.nest = LoopNest::rectangular({{0, 4}});  // runs to 4, extent is 4
  k.body = {makeAccess(0, {AffineExpr::var(0)})};
  EXPECT_THROW(generateTrace(k), ContractViolation);
}

TEST(TraceGen, IndirectAccessDeterministicAndInBounds) {
  Kernel k;
  k.name = "t";
  k.arrays = {ArrayDecl{"tab", {16}, 4}};
  k.nest = LoopNest::rectangular({{0, 99}});
  ArrayAccess acc;
  acc.arrayIndex = 0;
  acc.subscripts = {AffineExpr(0)};
  acc.indirectSeed = 7;
  k.body = {acc};
  const Trace a = generateTrace(k);
  const Trace b = generateTrace(k);
  EXPECT_EQ(a.refs(), b.refs());
  for (const MemRef& r : a) {
    EXPECT_LT(r.addr, 16u * 4u);
    EXPECT_EQ(r.addr % 4, 0u);
  }
  // Not all the same element (it actually scatters).
  bool scattered = false;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i].addr != a[0].addr) scattered = true;
  }
  EXPECT_TRUE(scattered);
}

TEST(TraceGen, ReferenceCountMatchesTraceSize) {
  Kernel k;
  k.name = "t";
  k.arrays = {ArrayDecl{"a", {8, 8}, 4}};
  k.nest = LoopNest::rectangular({{0, 7}, {0, 7}});
  k.body = {makeAccess(0, {AffineExpr::var(0), AffineExpr::var(1)}),
            makeAccess(0, {AffineExpr::var(0), AffineExpr::var(1)},
                       AccessType::Write)};
  EXPECT_EQ(k.referenceCount(), 128u);
  EXPECT_EQ(generateTrace(k).size(), 128u);
}

TEST(TraceGen, PatternPrefixIsTheTracePrefix) {
  // A bounded pattern stops mid-iteration (after the first access of
  // iteration 2 here) and materializes to exactly the trace's prefix.
  Kernel k;
  k.name = "t";
  k.arrays = {ArrayDecl{"a", {8, 8}, 4}, ArrayDecl{"b", {8, 8}, 2}};
  k.nest = LoopNest::rectangular({{0, 7}, {0, 7}});
  k.body = {makeAccess(0, {AffineExpr::var(0), AffineExpr::var(1)}),
            makeAccess(1, {AffineExpr::var(1), AffineExpr::var(0)},
                       AccessType::Write)};
  const MemoryLayout layout = MemoryLayout::tight(k, 64);
  const Trace full = generateTrace(k, layout);
  for (const std::size_t cap : {0u, 1u, 5u, 128u, 1000u}) {
    const AccessPattern prefix = generateAccessPattern(k, cap);
    const Trace t = materializeTrace(prefix, layout);
    ASSERT_EQ(t.size(), std::min<std::size_t>(cap, full.size()));
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_EQ(t[i], full[i]) << "cap " << cap << " ref " << i;
    }
  }
}

TEST(Kernel, StructuralIdentityIgnoresNamesOnly) {
  Kernel a;
  a.name = "one";
  a.arrays = {ArrayDecl{"x", {8, 8}, 4}};
  a.nest = LoopNest::rectangular({{0, 7}, {0, 7}});
  a.body = {makeAccess(0, {AffineExpr::var(0), AffineExpr::var(1)})};
  Kernel renamed = a;
  renamed.name = "two";
  renamed.arrays[0].name = "y";
  EXPECT_EQ(structuralIdentity(a), structuralIdentity(renamed));

  Kernel shifted = a;
  shifted.body[0].subscripts[1] = AffineExpr::var(1).plusConstant(-1);
  Kernel wider = a;
  wider.arrays[0].elemBytes = 8;
  Kernel writing = a;
  writing.body[0].type = AccessType::Write;
  Kernel shorter = a;
  shorter.nest = LoopNest::rectangular({{0, 7}, {0, 6}});
  for (const Kernel* k : {&shifted, &wider, &writing, &shorter}) {
    EXPECT_NE(structuralIdentity(a), structuralIdentity(*k));
  }
}

}  // namespace
}  // namespace memx
