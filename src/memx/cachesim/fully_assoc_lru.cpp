#include "memx/cachesim/fully_assoc_lru.hpp"

namespace memx {

FullyAssocLru::FullyAssocLru(const CacheConfig& config) {
  config.validate();
  allocateWrites_ = config.allocatePolicy == AllocatePolicy::WriteAllocate;
  capacity_ = config.numLines();
  lineOf_.resize(capacity_);
  prev_.resize(capacity_);
  next_.resize(capacity_);
  // At most half full keeps linear-probe chains short.
  std::size_t tableSize = 4;
  unsigned tableBits = 2;
  while (tableSize < 2 * static_cast<std::size_t>(capacity_)) {
    tableSize *= 2;
    ++tableBits;
  }
  table_.resize(tableSize);
  tableMask_ = tableSize - 1;
  hashShift_ = 64 - tableBits;
}

void FullyAssocLru::fill(std::uint64_t line, std::size_t freePos) {
  std::uint32_t slot = used_;
  if (used_ < capacity_) {
    ++used_;
  } else {
    slot = tail_;
    unlink(slot);
    erase(lineOf_[slot]);
    // The erase may have shifted entries back into `line`'s probe
    // chain, so find its insertion point again.
    freePos = home(line);
    while (table_[freePos].slot != kNone) {
      freePos = (freePos + 1) & tableMask_;
    }
  }
  lineOf_[slot] = line;
  table_[freePos] = Entry{line, slot};
  pushFront(slot);
}

void FullyAssocLru::erase(std::uint64_t line) {
  std::size_t hole = home(line);
  while (table_[hole].line != line || table_[hole].slot == kNone) {
    hole = (hole + 1) & tableMask_;
  }
  // Backward-shift deletion: pull later chain members into the hole
  // unless their home lies cyclically in (hole, pos], where moving them
  // would put them before their home.
  for (std::size_t pos = (hole + 1) & tableMask_;
       table_[pos].slot != kNone; pos = (pos + 1) & tableMask_) {
    const std::size_t h = home(table_[pos].line);
    const bool stays = hole <= pos ? (hole < h && h <= pos)
                                   : (hole < h || h <= pos);
    if (!stays) {
      table_[hole] = table_[pos];
      hole = pos;
    }
  }
  table_[hole].slot = kNone;
}

void FullyAssocLru::unlink(std::uint32_t slot) noexcept {
  const std::uint32_t p = prev_[slot];
  const std::uint32_t n = next_[slot];
  (p == kNone ? head_ : next_[p]) = n;
  (n == kNone ? tail_ : prev_[n]) = p;
}

void FullyAssocLru::pushFront(std::uint32_t slot) noexcept {
  prev_[slot] = kNone;
  next_[slot] = head_;
  (head_ == kNone ? tail_ : prev_[head_]) = slot;
  head_ = slot;
}

}  // namespace memx
