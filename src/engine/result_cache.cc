#include "engine/result_cache.h"

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/timer.h"

namespace relcomp {

namespace {
size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

uint64_t ResultCacheKey::Hash() const {
  uint64_t h = HashWorkloadQuery(seed, query);
  h = HashCombineSeed(h, static_cast<uint64_t>(kind));
  h = HashCombineSeed(h, num_samples);
  return h;
}

size_t ResultCache::EntryBytes(const ResultCacheValue& value) {
  return sizeof(Entry) + value.targets.size() * sizeof(ReliableTarget) +
         value.status.message().size();
}

ResultCache::ResultCache(size_t capacity, size_t num_shards, size_t max_bytes,
                         obs::MetricsRegistry* registry)
    : capacity_(capacity == 0 ? 1 : capacity), max_bytes_(max_bytes) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter("result_cache_hits_total");
  negative_hits_ = registry->GetCounter("result_cache_negative_hits_total");
  misses_ = registry->GetCounter("result_cache_misses_total");
  insertions_ = registry->GetCounter("result_cache_insertions_total");
  evictions_ = registry->GetCounter("result_cache_evictions_total");
  expired_ = registry->GetCounter("result_cache_expired_total");
  rejected_ = registry->GetCounter("result_cache_rejected_total");
  stale_served_ = registry->GetCounter("cache_stale_served_total", "cache",
                                       "result");
  bytes_gauge_ = registry->GetGauge("result_cache_bytes");
  num_shards = RoundUpToPowerOfTwo(num_shards == 0 ? 1 : num_shards);
  // No more shards than entries, or some shards could never hold anything.
  while (num_shards > 1 && num_shards > capacity_) num_shards >>= 1;
  shards_.reserve(num_shards);
  const size_t base = capacity_ / num_shards;
  const size_t extra = capacity_ % num_shards;
  const size_t byte_base = max_bytes_ / num_shards;
  const size_t byte_extra = max_bytes_ % num_shards;
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < extra ? 1 : 0);
    if (max_bytes_ > 0) {
      shard->byte_budget = byte_base + (i < byte_extra ? 1 : 0);
      // A per-shard budget below one smallest entry (sizeof(Entry): a
      // scalar payload, no targets, empty message) would reject every
      // insert and silently disable the shard; floor it so tiny budgets
      // degrade to "hold one smallest entry" per shard instead.
      if (shard->byte_budget < sizeof(Entry)) shard->byte_budget = sizeof(Entry);
    }
    shards_.push_back(std::move(shard));
  }
}

void ResultCache::RemoveEntry(
    Shard& shard,
    std::unordered_map<HashedKey, std::list<Entry>::iterator, KeyHash,
                       KeyEq>::iterator it) {
  shard.bytes -= it->second->bytes;
  bytes_gauge_->Add(-static_cast<double>(it->second->bytes));
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

std::optional<ResultCacheValue> ResultCache::Lookup(const ResultCacheKey& key,
                                                    Record record) {
  const HashedKey hashed{key, key.Hash()};
  Shard& shard = ShardFor(hashed.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(hashed);
  if (it == shard.index.end()) {
    if (record == Record::kAll) misses_->Inc();
    return std::nullopt;
  }
  if (it->second->expires && StopwatchNs::Now() >= it->second->deadline_ns) {
    // Lazy expiry: the deadline elapsed, so the entry is dead weight — drop
    // it and let the caller recompute (a miss). Expiry is counted even on
    // probes that do not count misses: the entry really is gone either way.
    RemoveEntry(shard, it);
    expired_->Inc();
    if (record == Record::kAll) misses_->Inc();
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (record != Record::kNone) {
    if (it->second->value.negative()) {
      negative_hits_->Inc();
    } else {
      hits_->Inc();
    }
  }
  return it->second->value;
}

StaleLookupResult ResultCache::LookupStale(const ResultCacheKey& key,
                                           double max_stale_seconds,
                                           Record record) {
  StaleLookupResult result;
  const HashedKey hashed{key, key.Hash()};
  Shard& shard = ShardFor(hashed.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(hashed);
  if (it == shard.index.end()) {
    if (record == Record::kAll) misses_->Inc();
    return result;
  }
  Entry& entry = *it->second;
  const bool ttl_elapsed =
      entry.expires && StopwatchNs::Now() >= entry.deadline_ns;
  if (ttl_elapsed) {
    const uint64_t stale_deadline_ns =
        entry.deadline_ns +
        static_cast<uint64_t>(max_stale_seconds > 0.0 ? max_stale_seconds * 1e9
                                                      : 0.0);
    if (entry.value.negative() || max_stale_seconds <= 0.0 ||
        StopwatchNs::Now() >= stale_deadline_ns) {
      // Negative entries and entries past the stale window die exactly as in
      // Lookup(): a cached failure must not outlive its backoff, and an
      // entry too old to serve is dead weight.
      RemoveEntry(shard, it);
      expired_->Inc();
      if (record == Record::kAll) misses_->Inc();
      return result;
    }
    result.stale = true;
    if (!entry.refresh_pending) {
      entry.refresh_pending = true;
      result.refresh_owner = true;
    }
    stale_served_->Inc();
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (record != Record::kNone) {
    if (entry.value.negative()) {
      negative_hits_->Inc();
    } else {
      hits_->Inc();
    }
  }
  result.value = entry.value;
  return result;
}

void ResultCache::ClearRefreshPending(const ResultCacheKey& key) {
  const HashedKey hashed{key, key.Hash()};
  Shard& shard = ShardFor(hashed.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(hashed);
  if (it != shard.index.end()) it->second->refresh_pending = false;
}

void ResultCache::Insert(const ResultCacheKey& key,
                         const ResultCacheValue& value, double ttl_seconds) {
  if (IsTransientStatusCode(value.status.code())) {
    // A transient failure (deadline, cancellation, shed) says nothing about
    // the key itself; negative-caching it would make a momentary condition
    // sticky for the TTL. Refused here as well as at the engine layer so no
    // future call path can reintroduce the bug.
    return;
  }
  const HashedKey hashed{key, key.Hash()};
  if (FaultInjector::Global().enabled() &&
      FaultInjector::Global().ShouldInject(FaultSite::kAllocFailure,
                                           hashed.hash)) {
    // Injected allocation failure: the insert is dropped, which the cache
    // contract already allows (any entry may be evicted or rejected at any
    // time), so correctness must be unaffected.
    return;
  }
  const size_t entry_bytes = EntryBytes(value);
  const bool expires = ttl_seconds > 0.0;
  const uint64_t deadline_ns =
      expires ? StopwatchNs::Now() + static_cast<uint64_t>(ttl_seconds * 1e9)
              : 0;
  Shard& shard = ShardFor(hashed.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.byte_budget > 0 && entry_bytes > shard.byte_budget) {
    // Size-aware admission: one entry outweighing the whole shard budget
    // would evict everything and still never be amortized by repeats.
    auto existing = shard.index.find(hashed);
    if (existing != shard.index.end()) {
      // The key's older (smaller) incarnation is now stale; drop it rather
      // than serve an outdated payload next to the rejected fresh one.
      RemoveEntry(shard, existing);
      evictions_->Inc();
    }
    rejected_->Inc();
    return;
  }
  auto it = shard.index.find(hashed);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    bytes_gauge_->Add(static_cast<double>(entry_bytes) -
                      static_cast<double>(it->second->bytes));
    it->second->value = value;
    it->second->deadline_ns = deadline_ns;
    it->second->expires = expires;
    it->second->refresh_pending = false;  // refresh landed; re-arm SWR
    it->second->bytes = entry_bytes;
    shard.bytes += entry_bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{hashed, value, deadline_ns, expires,
                               /*refresh_pending=*/false, entry_bytes});
    shard.index.emplace(hashed, shard.lru.begin());
    shard.bytes += entry_bytes;
    bytes_gauge_->Add(static_cast<double>(entry_bytes));
    insertions_->Inc();
  }
  // Evict LRU entries until both budgets hold. The freshly-touched entry is
  // at the front and (having passed admission) fits the byte budget alone,
  // so the loop always terminates before evicting it.
  while ((shard.lru.size() > shard.capacity ||
          (shard.byte_budget > 0 && shard.bytes > shard.byte_budget)) &&
         shard.lru.size() > 1) {
    auto victim = shard.index.find(shard.lru.back().key);
    RemoveEntry(shard, victim);
    evictions_->Inc();
  }
}

std::vector<ResultCacheExport> ResultCache::ExportEntries() const {
  std::vector<ResultCacheExport> out;
  const uint64_t now_ns = StopwatchNs::Now();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const Entry& entry : shard->lru) {
      if (entry.value.negative()) continue;  // failures never survive restart
      double ttl_seconds = 0.0;
      if (entry.expires) {
        if (now_ns >= entry.deadline_ns) continue;
        ttl_seconds = static_cast<double>(entry.deadline_ns - now_ns) * 1e-9;
      }
      out.push_back(ResultCacheExport{entry.key.key, entry.value, ttl_seconds});
    }
  }
  return out;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    bytes_gauge_->Add(-static_cast<double>(shard->bytes));
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  stats.hits = hits_->Value();
  stats.negative_hits = negative_hits_->Value();
  stats.misses = misses_->Value();
  stats.insertions = insertions_->Value();
  stats.evictions = evictions_->Value();
  stats.expired = expired_->Value();
  stats.rejected = rejected_->Value();
  stats.stale_served = stale_served_->Value();
  stats.bytes_in_use = bytes_in_use();
  return stats;
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

size_t ResultCache::bytes_in_use() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->bytes;
  }
  return total;
}

}  // namespace relcomp
