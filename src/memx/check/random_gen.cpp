#include "memx/check/random_gen.hpp"

#include <algorithm>
#include <random>
#include <string>

#include "memx/loopir/affine.hpp"
#include "memx/loopir/loop_nest.hpp"

namespace memx {

namespace {

int pickInt(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

std::uint64_t pickU64(std::mt19937_64& rng, std::uint64_t lo,
                      std::uint64_t hi) {
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
}

AccessType pickType(std::mt19937_64& rng) {
  // Reads dominate, as in real kernels; writes and ifetches keep the
  // write policies and the Instr plumbing exercised.
  const int r = pickInt(rng, 0, 9);
  if (r < 6) return AccessType::Read;
  if (r < 9) return AccessType::Write;
  return AccessType::Instr;
}

std::uint32_t pickSize(std::mt19937_64& rng) {
  // Mostly word-ish sizes, sometimes wide or odd ones so accesses
  // straddle line boundaries.
  switch (pickInt(rng, 0, 7)) {
    case 0: return 1;
    case 1: return 2;
    case 2: return 8;
    case 3: return 16;
    case 4: return 3;
    default: return 4;
  }
}

}  // namespace

CacheConfig randomCacheConfig(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  CacheConfig config;
  config.lineBytes = 4u << pickInt(rng, 0, 3);            // 4..32
  const std::uint32_t sets = 1u << pickInt(rng, 0, 4);    // 1..16
  config.associativity = 1u << pickInt(rng, 0, 3);        // 1..8
  config.sizeBytes = config.lineBytes * sets * config.associativity;

  // seed % 8 walks every replacement x write combination.
  const std::uint64_t combo = seed % 8;
  switch (combo % 4) {
    case 0: config.replacement = ReplacementPolicy::LRU; break;
    case 1: config.replacement = ReplacementPolicy::FIFO; break;
    case 2: config.replacement = ReplacementPolicy::Random; break;
    default: config.replacement = ReplacementPolicy::TreePLRU; break;
  }
  config.writePolicy = ((combo / 4) % 2 == 0) ? WritePolicy::WriteBack
                                              : WritePolicy::WriteThrough;
  config.validate();
  return config;
}

CacheConfig randomLruCacheConfig(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 4);
  CacheConfig config;
  config.lineBytes = 4u << pickInt(rng, 0, 3);            // 4..32
  const std::uint32_t sets = 1u << pickInt(rng, 0, 4);    // 1..16
  config.associativity = 1u << pickInt(rng, 0, 3);        // 1..8
  config.sizeBytes = config.lineBytes * sets * config.associativity;
  config.replacement = ReplacementPolicy::LRU;
  config.writePolicy = (seed % 2 == 0) ? WritePolicy::WriteBack
                                       : WritePolicy::WriteThrough;
  config.validate();
  return config;
}

CacheConfig randomGridCacheConfig(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 5);
  CacheConfig config;
  config.lineBytes = 4u << pickInt(rng, 0, 3);            // 4..32
  const std::uint32_t sets = 1u << pickInt(rng, 0, 4);    // 1..16
  config.associativity = 1u << pickInt(rng, 0, 3);        // 1..8
  config.sizeBytes = config.lineBytes * sets * config.associativity;
  config.replacement = (seed % 2 == 0) ? ReplacementPolicy::FIFO
                                       : ReplacementPolicy::TreePLRU;
  config.writePolicy = ((seed / 2) % 2 == 0) ? WritePolicy::WriteBack
                                             : WritePolicy::WriteThrough;
  config.validate();
  return config;
}

CacheConfig randomL2Config(const CacheConfig& l1, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 2);
  CacheConfig l2;
  l2.lineBytes = l1.lineBytes << pickInt(rng, 0, 1);
  l2.sizeBytes = l1.sizeBytes << pickInt(rng, 2, 4);
  l2.associativity = 1u << pickInt(rng, 0, 2);
  l2.associativity =
      std::min(l2.associativity, l2.sizeBytes / l2.lineBytes);
  l2.replacement = (seed % 2 == 0) ? ReplacementPolicy::LRU
                                   : ReplacementPolicy::FIFO;
  l2.writePolicy = WritePolicy::WriteBack;
  l2.validate();
  return l2;
}

Trace randomCheckTrace(std::uint64_t seed, std::size_t minRefs,
                       std::size_t maxRefs) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 3);
  const std::size_t target =
      pickU64(rng, minRefs, std::max(minRefs, maxRefs));
  // A window a few KiB wide: small enough that the generated caches
  // see reuse and conflicts, large enough to overflow them.
  const std::uint64_t window = 1ull << pickInt(rng, 10, 13);

  Trace trace;
  while (trace.size() < target) {
    const std::uint64_t base = pickU64(rng, 0, window - 64);
    switch (pickInt(rng, 0, 3)) {
      case 0: {  // strided run
        const std::int64_t stride = std::int64_t{1}
                                    << pickInt(rng, 0, 5);
        const AccessType type = pickType(rng);
        const std::uint32_t size = pickSize(rng);
        std::uint64_t addr = base;
        for (int i = pickInt(rng, 4, 40); i > 0; --i) {
          trace.push(MemRef{addr % window, size, type});
          addr += static_cast<std::uint64_t>(stride);
        }
        break;
      }
      case 1: {  // loop re-traversal of a small working set
        const std::size_t elems =
            static_cast<std::size_t>(pickInt(rng, 4, 32));
        const int rounds = pickInt(rng, 2, 4);
        const std::uint32_t size = pickSize(rng);
        for (int r = 0; r < rounds; ++r) {
          for (std::size_t e = 0; e < elems; ++e) {
            trace.push(MemRef{(base + e * size) % window, size,
                              pickType(rng)});
          }
        }
        break;
      }
      case 2: {  // ping-pong between two (possibly aliasing) bases
        const std::uint64_t other = pickU64(rng, 0, window - 64);
        const std::uint32_t size = pickSize(rng);
        for (int i = pickInt(rng, 4, 24); i > 0; --i) {
          trace.push(MemRef{base, size, pickType(rng)});
          trace.push(MemRef{other, size, pickType(rng)});
        }
        break;
      }
      default: {  // uniform noise
        for (int i = pickInt(rng, 4, 24); i > 0; --i) {
          trace.push(MemRef{pickU64(rng, 0, window - 32), pickSize(rng),
                            pickType(rng)});
        }
        break;
      }
    }
  }
  return trace;
}

Kernel randomStencilKernel(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) { return pickInt(rng, lo, hi); };

  Kernel k;
  k.name = "rnd" + std::to_string(seed);
  const int nArrays = pick(1, 3);
  const std::int64_t n = 8 * pick(2, 4);  // 16..32
  const std::uint32_t elem = 1u << pick(0, 2);
  for (int a = 0; a < nArrays; ++a) {
    k.arrays.push_back(
        ArrayDecl{"a" + std::to_string(a), {n + 2, n + 2}, elem});
  }
  k.nest = LoopNest::rectangular({{1, n}, {1, n}});

  const int nAccesses = pick(2, 5);
  for (int i = 0; i < nAccesses; ++i) {
    const auto arrayIdx = static_cast<std::size_t>(pick(0, nArrays - 1));
    const bool transposed = pick(0, 3) == 0;
    AffineExpr s0 = transposed ? AffineExpr::var(1) : AffineExpr::var(0);
    AffineExpr s1 = transposed ? AffineExpr::var(0) : AffineExpr::var(1);
    s0 = s0.plusConstant(pick(-1, 1));
    s1 = s1.plusConstant(pick(-1, 1));
    k.body.push_back(makeAccess(arrayIdx, {s0, s1}));
  }
  // Exactly one write, to array 0 at (i, j).
  k.body.push_back(makeAccess(0, {AffineExpr::var(0), AffineExpr::var(1)},
                              AccessType::Write));
  k.validate();
  return k;
}

}  // namespace memx
