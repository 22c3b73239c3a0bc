#include "memx/cachesim/cache_config.hpp"

#include <cctype>
#include <sstream>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

std::string toString(WritePolicy p) {
  return p == WritePolicy::WriteThrough ? "write-through" : "write-back";
}

std::string toString(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::LRU:
      return "LRU";
    case ReplacementPolicy::FIFO:
      return "FIFO";
    case ReplacementPolicy::Random:
      return "random";
    case ReplacementPolicy::TreePLRU:
      return "tree-PLRU";
  }
  return "?";
}

void CacheConfig::validate() const {
  MEMX_EXPECTS(isPow2(sizeBytes), "cache size must be a power of two");
  MEMX_EXPECTS(isPow2(lineBytes), "line size must be a power of two");
  MEMX_EXPECTS(isPow2(associativity),
               "associativity must be a power of two");
  MEMX_EXPECTS(lineBytes <= sizeBytes,
               "line size cannot exceed cache size");
  MEMX_EXPECTS(associativity <= sizeBytes / lineBytes,
               "associativity cannot exceed the number of lines");
}

std::string CacheConfig::label() const {
  std::ostringstream os;
  os << 'C' << sizeBytes << 'L' << lineBytes;
  if (associativity > 1) os << 'S' << associativity;
  return os.str();
}

CacheConfig parseCacheLabel(const std::string& label) {
  CacheConfig config;
  std::size_t pos = 0;
  auto expectTag = [&](char tag) {
    MEMX_EXPECTS(pos < label.size() &&
                     (label[pos] == tag || label[pos] == tag + 32),
                 std::string("expected '") + tag + "' in cache label '" +
                     label + "'");
    ++pos;
  };
  auto readNumber = [&]() -> std::uint32_t {
    MEMX_EXPECTS(pos < label.size() && std::isdigit(label[pos]) != 0,
                 "expected a number in cache label '" + label + "'");
    std::uint64_t v = 0;
    while (pos < label.size() && std::isdigit(label[pos]) != 0) {
      v = v * 10 + static_cast<std::uint64_t>(label[pos] - '0');
      MEMX_EXPECTS(v <= 0xFFFFFFFFull,
                   "number too large in cache label '" + label + "'");
      ++pos;
    }
    return static_cast<std::uint32_t>(v);
  };

  expectTag('C');
  config.sizeBytes = readNumber();
  expectTag('L');
  config.lineBytes = readNumber();
  if (pos < label.size()) {
    expectTag('S');
    config.associativity = readNumber();
  }
  MEMX_EXPECTS(pos == label.size(),
               "trailing characters in cache label '" + label + "'");
  config.validate();
  return config;
}

}  // namespace memx
