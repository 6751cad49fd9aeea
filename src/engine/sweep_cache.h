#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "reliability/estimator_factory.h"

namespace relcomp {

/// \brief Identity of one memoized per-source reliability sweep.
///
/// `seed` is the engine's *sweep seed* — derived from the source (not from
/// k or eta, and not from the workload tag), so every top-k(s, ·) and
/// reliable-set(s, ·) query over one source maps to the same key. For BFS
/// Sharing the seed also determines the index generation the sweep ran over
/// (the engine re-arms with a tagged derivative of it), which is why the key
/// needs no separate generation field.
struct SweepCacheKey {
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  NodeId source = kInvalidNode;
  uint32_t num_samples = 0;
  uint64_t seed = 0;

  bool operator==(const SweepCacheKey& other) const {
    return kind == other.kind && source == other.source &&
           num_samples == other.num_samples && seed == other.seed;
  }

  /// SplitMix-chained hash over every field.
  uint64_t Hash() const;
};

/// Outcome of a stale-tolerant sweep lookup (LookupStale).
struct StaleSweepLookup {
  /// The sweep (fresh or stale); nullptr on a true miss.
  std::shared_ptr<const std::vector<double>> sweep;
  /// True when the sweep is TTL-expired but within the stale window.
  bool stale = false;
  /// True for exactly one caller per stale episode — that caller owns the
  /// background re-warm. Reset by the next Insert on the key.
  bool refresh_owner = false;
};

/// One warm sweep as exported for the persistence journal: the full cache
/// key, the payload, and how much TTL it had left at export time
/// (0 = immortal). Expired entries are never exported.
struct SweepCacheExport {
  SweepCacheKey key;
  std::shared_ptr<const std::vector<double>> sweep;
  double ttl_seconds = 0.0;
};

/// Monotonic counters plus point-in-time occupancy; a snapshot type.
struct SweepCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Sweeps too large for the byte budget, never admitted.
  uint64_t rejected = 0;
  /// TTL'd warm entries dropped by the lookup that found them expired.
  uint64_t expired = 0;
  /// Expired sweeps served inside a stale window (stale-while-revalidate).
  uint64_t stale_served = 0;
  /// Occupancy at snapshot time.
  size_t bytes_in_use = 0;
  size_t entries = 0;

  uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// \brief Size-aware LRU memo of per-source reliability sweeps.
///
/// One sweep is n doubles — orders of magnitude heavier than a scalar cache
/// entry — so admission and eviction are by *bytes*, not entry count: the
/// cache evicts least-recently-used sweeps until the budget holds, and a
/// single sweep larger than the whole budget is rejected outright (admitting
/// it would flush everything for an entry that can never share). Values are
/// handed out as `shared_ptr<const>` so eviction never invalidates a reader
/// mid-derivation.
///
/// Thread-safe; one mutex guards the whole cache (operations are O(1) and
/// rare next to the O(K(m+n)) sweeps they memoize).
class SweepCache {
 public:
  /// `max_bytes` counts payload bytes (vector data); >= 1 enforced.
  /// `registry` (optional, not owned, must outlive the cache) receives the
  /// sweep_cache_* instruments; when nullptr a private registry is owned.
  explicit SweepCache(size_t max_bytes,
                      obs::MetricsRegistry* registry = nullptr);

  /// Returns the memoized sweep and refreshes its recency, or nullptr. An
  /// entry past its TTL deadline is dropped by the lookup that discovers it
  /// (counted in SweepCacheStats::expired) and reported as a miss. A live
  /// hit *promotes* a TTL'd entry to immortal: a real consumer proved the
  /// warm was wanted, so it graduates to the normal LRU/byte regime.
  /// `record_stats` = false makes the probe invisible to Stats() — for the
  /// engine's under-lock double check in the sweep-flight rendezvous, which
  /// would otherwise count one query's sweep acquisition twice.
  std::shared_ptr<const std::vector<double>> Lookup(const SweepCacheKey& key,
                                                    bool record_stats = true);

  /// Stale-while-revalidate lookup. Live entries behave exactly like
  /// Lookup() (including promote-on-hit). A TTL-expired entry whose deadline
  /// elapsed less than `max_stale_seconds` ago is served anyway with `stale`
  /// set and *without* promotion (it stays expired so the refresh replaces
  /// it); the first such observer gets `refresh_owner` = true. Sweep
  /// payloads are content-derived, so a stale sweep is byte-identical to a
  /// recomputed one — serving it cannot change any answer. Past the stale
  /// window the entry is reaped and the lookup is a miss.
  StaleSweepLookup LookupStale(const SweepCacheKey& key,
                               double max_stale_seconds,
                               bool record_stats = true);

  /// Releases the refresh-pending flag on `key`, re-arming LookupStale to
  /// elect a new refresh owner (for owners whose re-warm could not run).
  void ClearRefreshPending(const SweepCacheKey& key);

  /// Admits (or refreshes) `sweep` under `key`, evicting LRU entries until
  /// the byte budget holds. Oversized sweeps are rejected (see class note).
  /// `ttl_seconds` > 0 marks the entry as a speculative warm that expires
  /// after that long unless a Lookup hit promotes it first — the engine's
  /// scout-warmed sweeps use this so a warm no query ever wanted cannot pin
  /// cache bytes until LRU eviction. 0 (the default) admits immortal, the
  /// pre-TTL behavior; re-inserting an existing key applies the new TTL
  /// (a query-led re-insert thereby also promotes).
  void Insert(const SweepCacheKey& key,
              std::shared_ptr<const std::vector<double>> sweep,
              double ttl_seconds = 0.0);

  /// True when `key` is memoized and not expired. Touches neither recency
  /// nor stats — a pure probe, e.g. for the engine deciding whether a
  /// sweep-kind query is cache-servable or a source needs a scout warm (an
  /// expired warm is reported absent; the next Lookup reaps it).
  bool Contains(const SweepCacheKey& key) const;

  /// Snapshot of every live entry for the persistence journal, most-recent
  /// first. TTL'd entries carry their *remaining* TTL so a restart cannot
  /// extend a warm's life; entries already past their deadline are skipped
  /// (not reaped — this is a const probe like Contains).
  std::vector<SweepCacheExport> ExportEntries() const;

  /// Drops every entry (stats are kept).
  void Clear();

  SweepCacheStats Stats() const;
  size_t bytes_in_use() const;
  size_t size() const;
  size_t max_bytes() const { return max_bytes_; }

  /// Payload bytes one sweep vector occupies (the admission charge).
  static size_t SweepBytes(const std::vector<double>& sweep) {
    return sweep.size() * sizeof(double);
  }

 private:
  struct Entry {
    SweepCacheKey key;
    std::shared_ptr<const std::vector<double>> sweep;
    size_t bytes = 0;
    /// TTL state (see Insert): expired entries are reaped lazily by Lookup.
    bool expires = false;
    uint64_t deadline_ns = 0;
    /// A stale-while-revalidate re-warm is already owned for this entry.
    bool refresh_pending = false;
  };
  struct KeyHash {
    size_t operator()(const SweepCacheKey& key) const {
      return static_cast<size_t>(key.Hash());
    }
  };

  /// Updates the occupancy gauges from the locked fields (caller holds
  /// mutex_).
  void SyncGaugesLocked();

  const size_t max_bytes_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<SweepCacheKey, std::list<Entry>::iterator, KeyHash> index_;
  size_t bytes_in_use_ = 0;
  /// Private fallback when no shared registry was handed in.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* insertions_;
  obs::Counter* evictions_;
  obs::Counter* rejected_;
  obs::Counter* expired_;
  obs::Counter* stale_served_;
  obs::Gauge* bytes_gauge_;
  obs::Gauge* entries_gauge_;
};

}  // namespace relcomp
