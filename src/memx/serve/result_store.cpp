#include "memx/serve/result_store.hpp"

namespace memx::serve {

ResultStore::Resolved ResultStore::resolve(
    const Key& key, const std::function<Computed(const Siblings&)>& compute) {
  Siblings siblings;
  std::uint64_t generation = 0;
  {
    std::unique_lock lock(mutex_);
    auto it = entries_.find(key.exact);
    while (it != entries_.end() && it->second.value == nullptr) {
      // Another worker's claim: wait for it to publish or release.
      ready_.wait(lock);
      it = entries_.find(key.exact);
    }
    if (it != entries_.end()) {
      ++counters_.hits;
      it->second.lastUse = ++tick_;
      return {it->second.value, Source::Hit};
    }
    // Claim the key with a pending entry; while it stands, every other
    // resolve of this key waits above.
    generation = generation_;
    entries_.emplace(key.exact, Entry{nullptr, key.base, 0});
    if (!key.base.empty()) {
      for (const auto& [exact, entry] : entries_) {
        if (entry.value != nullptr && entry.base == key.base) {
          siblings.push_back(entry.value);
        }
      }
    }
  }
  Computed computed;
  try {
    computed = compute(siblings);
  } catch (...) {
    release(key.exact);
    throw;
  }
  auto value = std::make_shared<const StoredResult>(std::move(computed.value));
  publish(key.exact, generation, value, computed.subset);
  return {std::move(value), computed.subset ? Source::Subset : Source::Miss};
}

void ResultStore::publish(const std::string& exactKey,
                          std::uint64_t generation,
                          std::shared_ptr<const StoredResult> value,
                          bool subset) {
  {
    const std::lock_guard lock(mutex_);
    ++(subset ? counters_.subsetHits : counters_.misses);
    // The pending entry is this caller's claim: nothing else erases it.
    const auto it = entries_.find(exactKey);
    if (generation == generation_) {
      it->second.value = std::move(value);
      it->second.lastUse = ++tick_;
      evictLocked();
    } else {
      // Computed against an invalidated model: never cache it.
      entries_.erase(it);
    }
  }
  ready_.notify_all();
}

void ResultStore::release(const std::string& exactKey) noexcept {
  {
    const std::lock_guard lock(mutex_);
    entries_.erase(exactKey);
  }
  // Wake every waiter: the first to re-check claims the key.
  ready_.notify_all();
}

std::uint64_t ResultStore::invalidateAll() {
  std::uint64_t generation = 0;
  {
    const std::lock_guard lock(mutex_);
    ++generation_;
    generation = generation_;
    // Drop ready entries; pending ones are dropped when their
    // computation publishes against the old generation, so every ready
    // entry belongs to the current generation.
    std::erase_if(entries_,
                  [](const auto& kv) { return kv.second.value != nullptr; });
  }
  ready_.notify_all();
  return generation;
}

ResultStore::Counters ResultStore::counters() const {
  const std::lock_guard lock(mutex_);
  return counters_;
}

std::size_t ResultStore::entries() const {
  const std::lock_guard lock(mutex_);
  return entries_.size();
}

std::uint64_t ResultStore::generation() const {
  const std::lock_guard lock(mutex_);
  return generation_;
}

void ResultStore::evictLocked() {
  while (true) {
    std::size_t ready = 0;
    auto oldest = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.value == nullptr) continue;  // never evict pending
      ++ready;
      if (oldest == entries_.end() ||
          it->second.lastUse < oldest->second.lastUse) {
        oldest = it;
      }
    }
    if (ready <= config_.maxEntries || oldest == entries_.end()) return;
    entries_.erase(oldest);
  }
}

}  // namespace memx::serve
