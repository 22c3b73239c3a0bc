#include "memx/search/design_space.hpp"

#include <algorithm>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"
#include "memx/util/pow2_range.hpp"

namespace memx::search {

namespace {

template <typename T>
bool hasDuplicates(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  return std::adjacent_find(values.begin(), values.end()) != values.end();
}

std::vector<std::uint32_t> toU32(const std::vector<std::uint64_t>& values) {
  std::vector<std::uint32_t> out;
  out.reserve(values.size());
  for (const std::uint64_t v : values) {
    out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

/// Number of leading list entries <= bound (lists are ascending).
std::size_t prefixCount(const std::vector<std::uint32_t>& values,
                        std::uint64_t bound) {
  std::size_t n = 0;
  while (n < values.size() && values[n] <= bound) ++n;
  return n;
}

}  // namespace

void DesignSpaceOptions::validate() const {
  ranges.validate();
  MEMX_EXPECTS(ranges.minLineBytes <= ranges.minCacheBytes,
               "the smallest cache must admit at least one line size");
  MEMX_EXPECTS(!ranges.sweepAssociativity || ranges.maxAssociativity <= 8,
               "the cycle model tabulates associativity up to 8-way");
  MEMX_EXPECTS(!replacements.empty(), "replacement dimension is empty");
  MEMX_EXPECTS(!writePolicies.empty(), "write-policy dimension is empty");
  MEMX_EXPECTS(!hasDuplicates(replacements),
               "duplicate replacement policy in the search dimension");
  MEMX_EXPECTS(!hasDuplicates(writePolicies),
               "duplicate write policy in the search dimension");
  for (const std::uint32_t bytes : l2CapacityBytes) {
    MEMX_EXPECTS(isPow2(bytes), "L2 capacities must be powers of two");
    MEMX_EXPECTS(bytes >= 2 * ranges.minCacheBytes,
                 "an L2 candidate smaller than twice the smallest L1 can "
                 "never be selected");
  }
}

DesignSpaceOptions jointSpace(const ExploreRanges& ranges) {
  DesignSpaceOptions space;
  space.ranges = ranges;
  space.replacements = {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
                        ReplacementPolicy::Random, ReplacementPolicy::TreePLRU};
  space.writePolicies = {WritePolicy::WriteBack, WritePolicy::WriteThrough};
  space.sweepLayout = true;
  space.l2CapacityBytes = {4 * ranges.maxCacheBytes};
  return space;
}

std::string JointPoint::label() const {
  std::string s = key.label();
  s += '|';
  s += toString(replacement);
  s += '|';
  s += toString(writePolicy);
  s += optimizeLayout ? "|opt" : "|tight";
  if (l2) {
    s += "|L2:";
    s += l2->label();
  }
  return s;
}

DesignSpace::DesignSpace(DesignSpaceOptions options)
    : options_(std::move(options)) {
  // Normalize the L2 candidate list before validation so equal spaces
  // compare equal regardless of the order the caller listed capacities.
  std::sort(options_.l2CapacityBytes.begin(), options_.l2CapacityBytes.end());
  options_.l2CapacityBytes.erase(
      std::unique(options_.l2CapacityBytes.begin(),
                  options_.l2CapacityBytes.end()),
      options_.l2CapacityBytes.end());
  options_.validate();

  const ExploreRanges& r = options_.ranges;
  const std::uint32_t maxCache = std::min(r.maxCacheBytes, r.onChipBytes);
  cacheBytes_ = toU32(pow2Range(r.minCacheBytes, maxCache));
  lineBytes_ = toU32(
      pow2Range(r.minLineBytes, std::min(r.maxLineBytes, maxCache)));
  assoc_ = r.sweepAssociativity ? toU32(pow2Range(1, r.maxAssociativity))
                                : std::vector<std::uint32_t>{1};
  tiling_ = r.sweepTiling ? toU32(pow2Range(1, r.maxTiling))
                          : std::vector<std::uint32_t>{1};
  layout_ = options_.sweepLayout
                ? std::vector<std::uint8_t>{0, 1}
                : std::vector<std::uint8_t>{
                      options_.defaultOptimizeLayout ? std::uint8_t{1}
                                                    : std::uint8_t{0}};
  l2Bytes_.push_back(0);
  l2Bytes_.insert(l2Bytes_.end(), options_.l2CapacityBytes.begin(),
                  options_.l2CapacityBytes.end());

  const std::size_t maxDim =
      std::max({cacheBytes_.size(), lineBytes_.size(), assoc_.size(),
                tiling_.size(), layout_.size(), l2Bytes_.size(),
                options_.replacements.size(), options_.writePolicies.size()});
  MEMX_EXPECTS(maxDim <= 256, "a genome gene indexes at most 256 values");

  // Valid-genome count, without enumeration: the (S, B, L2) freedoms
  // factor per (T, L) prefix.
  const std::uint64_t comboCount =
      static_cast<std::uint64_t>(options_.replacements.size()) *
      options_.writePolicies.size() * layout_.size();
  for (const std::uint32_t T : cacheBytes_) {
    std::uint64_t l2Count = 1;  // "none" is always valid
    for (std::size_t k = 1; k < l2Bytes_.size(); ++k) {
      if (l2Bytes_[k] >= 2ull * T) ++l2Count;
    }
    for (const std::uint32_t L : lineBytes_) {
      if (L > T) break;
      const std::uint64_t lines = T / L;
      const std::uint64_t sCount = prefixCount(assoc_, lines);
      const std::uint64_t bCount = prefixCount(tiling_, lines);
      size_ += sCount * bCount * comboCount * l2Count;
    }
  }
}

std::size_t DesignSpace::dimSize(Gene which) const {
  switch (which) {
    case Gene::CacheBytes:
      return cacheBytes_.size();
    case Gene::LineBytes:
      return lineBytes_.size();
    case Gene::Associativity:
      return assoc_.size();
    case Gene::Tiling:
      return tiling_.size();
    case Gene::Replacement:
      return options_.replacements.size();
    case Gene::WritePolicy:
      return options_.writePolicies.size();
    case Gene::Layout:
      return layout_.size();
    case Gene::L2:
      return l2Bytes_.size();
  }
  throw ContractViolation("unknown gene");
}

bool DesignSpace::isValid(const Genome& g) const {
  for (std::size_t i = 0; i < kGeneCount; ++i) {
    if (g[i] >= dimSize(static_cast<Gene>(i))) return false;
  }
  const std::uint32_t T = cacheBytes_[gene(g, Gene::CacheBytes)];
  const std::uint32_t L = lineBytes_[gene(g, Gene::LineBytes)];
  if (L > T) return false;
  const std::uint32_t lines = T / L;
  if (assoc_[gene(g, Gene::Associativity)] > lines) return false;
  if (tiling_[gene(g, Gene::Tiling)] > lines) return false;
  const std::uint32_t l2 = l2Bytes_[gene(g, Gene::L2)];
  if (l2 != 0 && l2 < 2ull * T) return false;
  return true;
}

Genome DesignSpace::repair(Genome g) const {
  for (std::size_t i = 0; i < kGeneCount; ++i) {
    const std::uint8_t last =
        static_cast<std::uint8_t>(dimSize(static_cast<Gene>(i)) - 1);
    if (g[i] > last) g[i] = last;
  }
  const std::uint32_t T = cacheBytes_[gene(g, Gene::CacheBytes)];
  auto clampTo = [&](Gene which, const std::vector<std::uint32_t>& values,
                     std::uint64_t bound) {
    // options.validate() guarantees values[0] <= bound here, so the
    // clamped prefix is never empty.
    const std::uint8_t last =
        static_cast<std::uint8_t>(prefixCount(values, bound) - 1);
    std::uint8_t& idx = g[static_cast<std::size_t>(which)];
    if (idx > last) idx = last;
  };
  clampTo(Gene::LineBytes, lineBytes_, T);
  const std::uint32_t lines = T / lineBytes_[gene(g, Gene::LineBytes)];
  clampTo(Gene::Associativity, assoc_, lines);
  clampTo(Gene::Tiling, tiling_, lines);
  std::uint8_t& l2Idx = g[static_cast<std::size_t>(Gene::L2)];
  if (l2Idx != 0 && l2Bytes_[l2Idx] < 2ull * T) l2Idx = 0;
  return g;
}

JointPoint DesignSpace::decode(const Genome& g) const {
  MEMX_EXPECTS(isValid(g), "cannot decode an invalid genome");
  JointPoint point;
  point.key = ConfigKey{cacheBytes_[gene(g, Gene::CacheBytes)],
                        lineBytes_[gene(g, Gene::LineBytes)],
                        assoc_[gene(g, Gene::Associativity)],
                        tiling_[gene(g, Gene::Tiling)]};
  point.replacement = options_.replacements[gene(g, Gene::Replacement)];
  point.writePolicy = options_.writePolicies[gene(g, Gene::WritePolicy)];
  point.optimizeLayout = layout_[gene(g, Gene::Layout)] != 0;
  const std::uint32_t l2 = l2Bytes_[gene(g, Gene::L2)];
  if (l2 != 0) {
    CacheConfig companion;
    companion.sizeBytes = l2;
    // The companion derives from the L1: double lines (inclusion needs
    // line >= L1 line), 2-way when it fits, and the same policies.
    companion.lineBytes = 2 * point.key.lineBytes;
    companion.associativity =
        std::min<std::uint32_t>(2, companion.numLines());
    companion.writePolicy = point.writePolicy;
    companion.replacement = point.replacement;
    companion.validate();
    point.l2 = companion;
  }
  return point;
}

std::uint64_t DesignSpace::packed(const Genome& g) const noexcept {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < kGeneCount; ++i) {
    key = (key << 8) | g[i];
  }
  return key;
}

std::vector<Genome> DesignSpace::enumerate() const {
  std::vector<Genome> all;
  all.reserve(size_);
  const auto u8 = [](std::size_t v) { return static_cast<std::uint8_t>(v); };
  for (std::size_t ti = 0; ti < cacheBytes_.size(); ++ti) {
    const std::uint32_t T = cacheBytes_[ti];
    for (std::size_t li = 0; li < lineBytes_.size(); ++li) {
      if (lineBytes_[li] > T) break;
      const std::uint32_t lines = T / lineBytes_[li];
      for (std::size_t si = 0; si < assoc_.size(); ++si) {
        if (assoc_[si] > lines) break;
        for (std::size_t bi = 0; bi < tiling_.size(); ++bi) {
          if (tiling_[bi] > lines) break;
          for (std::size_t ri = 0; ri < options_.replacements.size(); ++ri) {
            for (std::size_t wi = 0; wi < options_.writePolicies.size();
                 ++wi) {
              for (std::size_t yi = 0; yi < layout_.size(); ++yi) {
                for (std::size_t hi = 0; hi < l2Bytes_.size(); ++hi) {
                  if (hi != 0 && l2Bytes_[hi] < 2ull * T) continue;
                  all.push_back(Genome{u8(ti), u8(li), u8(si), u8(bi),
                                       u8(ri), u8(wi), u8(yi), u8(hi)});
                }
              }
            }
          }
        }
      }
    }
  }
  return all;
}

Genome DesignSpace::randomGenome(std::mt19937_64& rng) const {
  // One engine draw per gene (modulo bias is negligible against 2^64),
  // so a genome costs exactly kGeneCount draws regardless of dimension
  // sizes — seed-reproducibility does not depend on library details.
  Genome g{};
  for (std::size_t i = 0; i < kGeneCount; ++i) {
    g[i] = static_cast<std::uint8_t>(rng() %
                                     dimSize(static_cast<Gene>(i)));
  }
  return repair(g);
}

}  // namespace memx::search
