#include "memx/cachesim/miss_classifier.hpp"

#include "memx/util/assert.hpp"

namespace memx {

MissClassifier::MissClassifier(const CacheConfig& config)
    : target_(config), fullyAssoc_(config) {}

void MissClassifier::access(const MemRef& ref) {
  const AccessOutcome real = target_.access(ref);
  const std::uint64_t firstLine =
      ref.addr / target_.config().lineBytes;
  const std::uint64_t lastLine = lastByte(ref) / target_.config().lineBytes;
  const bool shadowHit = fullyAssoc_.access(firstLine, lastLine);

  bool allSeen = true;
  for (std::uint64_t line = firstLine;; ++line) {
    allSeen &= !seenLines_.insert(line).second;
    if (line == lastLine) break;
  }

  ++breakdown_.accesses;
  if (real.hit) {
    ++breakdown_.hits;
  } else if (!allSeen) {
    ++breakdown_.compulsory;
  } else if (!shadowHit) {
    ++breakdown_.capacity;
  } else {
    ++breakdown_.conflict;
  }
}

void MissClassifier::run(const Trace& trace) {
  for (const MemRef& ref : trace) access(ref);
}

MissBreakdown classifyMisses(const CacheConfig& config, const Trace& trace) {
  MissClassifier classifier(config);
  classifier.run(trace);
  return classifier.breakdown();
}

std::uint64_t countConflicts(const CacheConfig& config, const Trace& trace,
                             std::uint64_t bound) {
  ConflictCounter counter(config);
  const std::uint64_t lineBytes = config.lineBytes;
  std::uint64_t conflicts = 0;
  for (std::size_t i = 0; i < trace.size() && conflicts < bound; ++i) {
    const MemRef& ref = trace[i];
    conflicts += counter.access(ref.addr / lineBytes,
                                lastByte(ref) / lineBytes, ref.type)
                     ? 1
                     : 0;
  }
  return conflicts;
}

}  // namespace memx
