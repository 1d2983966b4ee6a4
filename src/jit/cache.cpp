#include "jit/cache.hpp"

#include <algorithm>

namespace jitise::jit {

std::optional<CachedImplementation> BitstreamCache::lookup(
    std::uint64_t signature) {
  Stripe& s = stripe_of(signature);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(signature);
  if (it == s.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  it->second->stamp = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  return it->second->entry;
}

void BitstreamCache::insert(std::uint64_t signature,
                            CachedImplementation entry) {
  const std::size_t size = entry.bitstream.size_bytes();
  {
    Stripe& s = stripe_of(signature);
    std::lock_guard<std::mutex> lock(s.mu);
    const std::uint64_t stamp =
        clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (const auto it = s.map.find(signature); it != s.map.end()) {
      // Replacement refreshes recency but never evicts (same contract as
      // the original single-mutex cache).
      const std::size_t old = it->second->entry.bitstream.size_bytes();
      it->second->entry = std::move(entry);
      it->second->stamp = stamp;
      s.bytes += size - old;
      bytes_.fetch_add(size, std::memory_order_relaxed);
      bytes_.fetch_sub(old, std::memory_order_relaxed);
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      if (journal_) journal_->record_insert(signature, it->second->entry);
      return;
    }
    s.lru.push_front(Node{signature, std::move(entry), stamp});
    s.map[signature] = s.lru.begin();
    s.bytes += size;
    bytes_.fetch_add(size, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    if (journal_) journal_->record_insert(signature, s.lru.front().entry);
  }
  if (capacity_ != 0 && bytes_.load(std::memory_order_relaxed) > capacity_)
    evict_to_capacity();
}

void BitstreamCache::evict_to_capacity() {
  // All-stripe lock in index order (the only multi-stripe lock sites are
  // this, snapshot() and clear(), all using the same order — deadlock-free).
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(stripes_.size());
  for (Stripe& s : stripes_) locks.emplace_back(s.mu);

  while (bytes_.load(std::memory_order_relaxed) > capacity_ &&
         entries_.load(std::memory_order_relaxed) > 1) {
    // Each stripe's list is stamp-descending, so its back is its oldest;
    // the global victim is the minimum over stripe backs.
    Stripe* victim_stripe = nullptr;
    std::uint64_t oldest = 0;
    for (Stripe& s : stripes_) {
      if (s.lru.empty()) continue;
      const std::uint64_t stamp = s.lru.back().stamp;
      if (victim_stripe == nullptr || stamp < oldest) {
        victim_stripe = &s;
        oldest = stamp;
      }
    }
    if (victim_stripe == nullptr) break;
    const Node& victim = victim_stripe->lru.back();
    if (journal_) journal_->record_evict(victim.signature);
    const std::size_t size = victim.entry.bitstream.size_bytes();
    victim_stripe->bytes -= size;
    bytes_.fetch_sub(size, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    victim_stripe->map.erase(victim.signature);
    victim_stripe->lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool BitstreamCache::contains(std::uint64_t signature) const {
  const Stripe& s = stripe_of(signature);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.map.count(signature) != 0;
}

bool BitstreamCache::erase(std::uint64_t signature) {
  Stripe& s = stripe_of(signature);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(signature);
  if (it == s.map.end()) return false;
  const std::size_t size = it->second->entry.bitstream.size_bytes();
  s.bytes -= size;
  bytes_.fetch_sub(size, std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  s.lru.erase(it->second);
  s.map.erase(it);
  return true;
}

void BitstreamCache::clear() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(stripes_.size());
  for (Stripe& s : stripes_) locks.emplace_back(s.mu);
  for (Stripe& s : stripes_) {
    s.lru.clear();
    s.map.clear();
    s.bytes = 0;
  }
  bytes_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<std::uint64_t, CachedImplementation>>
BitstreamCache::snapshot() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(stripes_.size());
  for (const Stripe& s : stripes_) locks.emplace_back(s.mu);

  std::vector<const Node*> nodes;
  nodes.reserve(entries_.load(std::memory_order_relaxed));
  for (const Stripe& s : stripes_)
    for (const Node& node : s.lru) nodes.push_back(&node);
  std::sort(nodes.begin(), nodes.end(), [](const Node* a, const Node* b) {
    return a->stamp > b->stamp;  // most recently used first
  });

  std::vector<std::pair<std::uint64_t, CachedImplementation>> out;
  out.reserve(nodes.size());
  for (const Node* node : nodes) out.emplace_back(node->signature, node->entry);
  return out;
}

}  // namespace jitise::jit
