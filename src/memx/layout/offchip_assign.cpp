#include "memx/layout/offchip_assign.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "memx/cachesim/miss_classifier.hpp"
#include "memx/loopir/ref_classes.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

namespace {

/// Cap on the number of references simulated when verifying a candidate
/// layout (conflicts in lockstep access patterns show up immediately).
constexpr std::size_t kVerifyRefCap = 8192;

/// First iteration vector of the nest (lower bounds, evaluated outermost
/// inwards so clamped bounds also work).
std::vector<std::int64_t> iterationOrigin(const LoopNest& nest) {
  std::vector<std::int64_t> iv;
  iv.reserve(nest.depth());
  for (std::size_t k = 0; k < nest.depth(); ++k) {
    iv.push_back(nest.loop(k).lower.evalLower(
        std::span<const std::int64_t>(iv.data(), iv.size())));
  }
  return iv;
}

/// Lowest address any access of `group` touches at the iteration origin,
/// under a candidate placement.
std::uint64_t leaderAddress(const Kernel& kernel, const RefGroup& group,
                            const ArrayPlacement& placement,
                            std::span<const std::int64_t> origin) {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::int64_t> subs;
  for (const std::size_t idx : group.accessIndices) {
    const ArrayAccess& acc = kernel.body[idx];
    subs.clear();
    for (const AffineExpr& e : acc.subscripts) subs.push_back(e.eval(origin));
    best = std::min(best, placement.address(subs));
  }
  return best;
}

/// Row offset used to order and space classes: the first non-inner-varying
/// constant (e.g. -1 for Compress's a[i-1][*] class), or 0.
std::int64_t rowOffsetOf(const RefGroup& g) {
  return g.outerConstants.empty() ? 0 : g.outerConstants.front();
}

struct Candidate {
  std::vector<ArrayPlacement> placements;
  std::vector<std::uint64_t> slots;  // per group
  std::uint64_t padding = 0;
};

/// Build one candidate layout for a given uniform row shift `d` (in cache
/// lines per row step). Returns nullopt when the leader constraints
/// cannot be met.
std::optional<Candidate> tryShift(
    const Kernel& kernel, const CacheConfig& cache,
    const RefAnalysis& analysis, std::span<const std::int64_t> origin,
    std::uint64_t d, std::int64_t innermostStep, std::uint64_t startAddr) {
  const std::uint64_t L = cache.lineBytes;
  const std::uint64_t modulus = cache.numSets();

  Candidate cand;
  cand.placements.resize(kernel.arrays.size());
  cand.slots.assign(analysis.groups.size(), 0);

  std::uint64_t nextFree = startAddr;
  std::uint64_t slotCursor = 0;

  for (std::size_t a = 0; a < kernel.arrays.size(); ++a) {
    const ArrayDecl& decl = kernel.arrays[a];

    std::vector<std::size_t> groupsOn;
    for (std::size_t g = 0; g < analysis.groups.size(); ++g) {
      if (analysis.groups[g].arrayIndex == a) groupsOn.push_back(g);
    }
    std::sort(groupsOn.begin(), groupsOn.end(),
              [&](std::size_t x, std::size_t y) {
                const RefGroup& gx = analysis.groups[x];
                const RefGroup& gy = analysis.groups[y];
                if (rowOffsetOf(gx) != rowOffsetOf(gy)) {
                  return rowOffsetOf(gx) < rowOffsetOf(gy);
                }
                return gx.minFlatOffset < gy.minFlatOffset;
              });

    ArrayPlacement placement;
    placement.pitches = rowMajorPitches(decl);

    if (groupsOn.empty()) {
      placement.baseAddr = nextFree;
      nextFree += placement.spanBytes(decl);
      cand.placements[a] = std::move(placement);
      continue;
    }

    // Pitch: smallest line-aligned pitch >= tight whose per-row slot
    // advance equals d (keeps all arrays shifting uniformly).
    if (decl.rank() >= 2) {
      const std::uint64_t tightRow =
          static_cast<std::uint64_t>(decl.extents[decl.rank() - 1]) *
          decl.elemBytes;
      std::uint64_t pitch = alignUp(tightRow, L);
      while ((pitch / L) % modulus != d % modulus) {
        pitch += L;
      }
      placement.pitches = rowMajorPitches(decl, pitch);
    }

    // Slot targets: rows spaced d apart, relative to this array's cursor.
    const std::int64_t minRow = rowOffsetOf(analysis.groups[groupsOn[0]]);
    std::uint64_t arraySpanSlots = 0;
    for (const std::size_t g : groupsOn) {
      const RefGroup& grp = analysis.groups[g];
      const std::uint64_t rel =
          static_cast<std::uint64_t>(rowOffsetOf(grp) - minRow) * d;
      cand.slots[g] = (slotCursor + rel) % modulus;
      arraySpanSlots = std::max(
          arraySpanSlots,
          rel + linesLive(grp, cache.lineBytes, decl.elemBytes,
                          innermostStep));
    }

    // Base: stagger the array so every class leader lands on its slot.
    bool placed = false;
    const std::uint64_t alignedBase = alignUp(nextFree, L);
    for (std::uint64_t k = 0; k < modulus && !placed; ++k) {
      placement.baseAddr = alignedBase + k * L;
      bool ok = true;
      for (const std::size_t g : groupsOn) {
        const std::uint64_t leader =
            leaderAddress(kernel, analysis.groups[g], placement, origin);
        if ((leader / L) % modulus != cand.slots[g]) {
          ok = false;
          break;
        }
      }
      placed = ok;
    }
    if (!placed) return std::nullopt;

    slotCursor = (slotCursor + arraySpanSlots) % modulus;
    const std::uint64_t span = placement.spanBytes(decl);
    cand.padding += (placement.baseAddr - nextFree) +
                    (span - decl.sizeBytes());
    nextFree = placement.baseAddr + span;
    cand.placements[a] = std::move(placement);
  }
  return cand;
}

/// Outcome of one bounded probe simulation.
struct ProbeResult {
  std::uint64_t conflicts = 0;  ///< min(conflict misses, bound)
  std::uint64_t refs = 0;       ///< probe references presented
};

/// Conflict misses of `placements` on the recorded probe, stopping once
/// `bound` are found. Addresses are materialized per reference, so a
/// probe cut short early costs only the references it presented.
ProbeResult probeConflicts(const AccessPattern& probe,
                           const CacheConfig& cache,
                           const std::vector<ArrayPlacement>& placements,
                           std::uint64_t bound) {
  ConflictCounter counter(cache);
  const unsigned lineShift = log2Exact(cache.lineBytes);
  ProbeResult result;
  std::size_t coord = 0;
  for (const AccessPattern::Ref& ref : probe.refs) {
    if (result.conflicts >= bound) break;
    const std::uint32_t rank = probe.ranks[ref.arrayIndex];
    const std::uint64_t addr = placements[ref.arrayIndex].address(
        std::span<const std::int64_t>(probe.coords.data() + coord, rank));
    coord += rank;
    const std::uint64_t last = addr + probe.elemBytes[ref.arrayIndex] - 1;
    ++result.refs;
    if (counter.access(addr >> lineShift, last >> lineShift, ref.type)) {
      ++result.conflicts;
    }
  }
  return result;
}

/// The plan for an accepted candidate (or the tight layout when there
/// is none), with per-array padding measured against tight placement.
AssignmentPlan planFrom(const Kernel& kernel, const Candidate* cand,
                        bool certified, std::uint64_t startAddr) {
  AssignmentPlan plan;
  plan.layout = cand ? MemoryLayout{cand->placements}
                     : MemoryLayout::tight(kernel, startAddr);
  if (cand) plan.groupSlots = cand->slots;
  plan.complete = certified;
  plan.arrays.resize(kernel.arrays.size());
  std::uint64_t next = startAddr;
  for (std::size_t a = 0; a < kernel.arrays.size(); ++a) {
    const ArrayDecl& decl = kernel.arrays[a];
    if (!cand) {
      plan.arrays[a].baseAddr = next;
      next += decl.sizeBytes();
      continue;
    }
    const ArrayPlacement& p = plan.layout.placement(a);
    plan.arrays[a].baseAddr = p.baseAddr;
    plan.arrays[a].rowPitchBytes =
        decl.rank() >= 2 ? p.pitches[decl.rank() - 2] : 0;
    plan.arrays[a].paddingBytes =
        (p.baseAddr - next) + (p.spanBytes(decl) - decl.sizeBytes());
    plan.arrays[a].conflictFree = certified;
    next = p.baseAddr + p.spanBytes(decl);
  }
  return plan;
}

}  // namespace

std::uint64_t AssignmentPlan::totalPaddingBytes() const {
  std::uint64_t total = 0;
  for (const ArrayAssignment& a : arrays) total += a.paddingBytes;
  return total;
}

MemoryLayout sequentialLayout(const Kernel& kernel,
                              std::uint64_t startAddr) {
  return MemoryLayout::tight(kernel, startAddr);
}

AccessPattern layoutProbePattern(const Kernel& probeKernel) {
  return generateAccessPattern(probeKernel, kVerifyRefCap);
}

AssignmentPlan assignConflictFree(const Kernel& kernel,
                                  const CacheConfig& cache,
                                  std::uint64_t startAddr,
                                  const AccessPattern* probePattern) {
  kernel.validate();
  cache.validate();

  const RefAnalysis analysis = analyzeReferences(kernel);
  const std::int64_t step =
      kernel.nest.depth() == 0
          ? 1
          : kernel.nest.loop(kernel.nest.depth() - 1).step;
  const auto origin = iterationOrigin(kernel.nest);
  const std::uint64_t modulus = cache.numSets();

  // Below the Section-3 minimum size no placement can keep every class
  // resident; conflicts (or capacity thrash) are unavoidable. The tight
  // live-lines bound is used so exact fits (e.g. Compress in 4 lines)
  // still qualify.
  const bool feasible =
      minLiveLines(kernel, cache.lineBytes) <= cache.numLines();

  // Enumerate uniform row shifts, cheapest padding first.
  std::vector<std::uint64_t> shifts(
      std::min<std::uint64_t>(modulus, 32));
  std::iota(shifts.begin(), shifts.end(), 0);

  std::vector<Candidate> scored;
  for (const std::uint64_t d : shifts) {
    auto cand = tryShift(kernel, cache, analysis, origin, d, step,
                         startAddr);
    if (cand) scored.push_back(std::move(*cand));
  }
  std::sort(scored.begin(), scored.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.padding < y.padding;
            });
  if (!feasible || scored.empty()) {
    return planFrom(kernel, nullptr, false, startAddr);
  }

  // Candidates with equal placements address every probe reference
  // identically and so score identically: a repeat can neither certify
  // before its first occurrence nor beat it strictly. Probe each
  // distinct placement once, in padding order.
  std::vector<const Candidate*> distinct;
  for (const Candidate& cand : scored) {
    const bool repeat = std::any_of(
        distinct.begin(), distinct.end(), [&](const Candidate* seen) {
          return seen->placements == cand.placements;
        });
    if (!repeat) distinct.push_back(&cand);
  }

  AccessPattern ownProbe;
  if (probePattern == nullptr) {
    ownProbe = layoutProbePattern(kernel);
    probePattern = &ownProbe;
  }
  std::uint64_t probes = 0;
  std::uint64_t probeRefs = 0;
  const auto probe = [&](const Candidate& cand, std::uint64_t bound) {
    const ProbeResult r =
        probeConflicts(*probePattern, cache, cand.placements, bound);
    ++probes;
    probeRefs += r.refs;
    return r.conflicts;
  };
  const auto finish = [&](AssignmentPlan plan) {
    plan.candidatesProbed = probes;
    plan.probeRefs = probeRefs;
    return plan;
  };

  // Phase 1: accept the first candidate the probe certifies
  // conflict-free; one conflict is enough to reject.
  for (const Candidate* cand : distinct) {
    if (probe(*cand, 1) == 0) {
      return finish(planFrom(kernel, cand, true, startAddr));
    }
  }

  // Phase 2: nothing certified, so keep the least-conflicting candidate
  // (still often better than tight), flagged incomplete. Bounding each
  // count by the best so far is exact: a probe cut off at the bound
  // cannot win, and the first candidate in order keeps ties.
  const Candidate* best = nullptr;
  std::uint64_t bestConflicts = std::numeric_limits<std::uint64_t>::max();
  for (const Candidate* cand : distinct) {
    const std::uint64_t conflicts = probe(*cand, bestConflicts);
    if (conflicts < bestConflicts) {
      bestConflicts = conflicts;
      best = cand;
    }
  }
  return finish(planFrom(kernel, best, false, startAddr));
}

}  // namespace memx
