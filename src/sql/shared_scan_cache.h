#ifndef RQL_SQL_SHARED_SCAN_CACHE_H_
#define RQL_SQL_SHARED_SCAN_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cleanup.h"
#include "retro/snapshot_store.h"
#include "sql/decoded_page.h"

namespace rql::sql {

/// The engine's decoded-page cache, shared by every RQL run it is handed
/// to. Scans consult it for pages the reader can version, so a page
/// version shared by N snapshots is fetched, slot-walked and tuple-decoded
/// once instead of N times. A caller wanting run-private reuse simply
/// hands each run its own instance; a daemon hands every session one
/// store-scoped instance.
///
/// The key is the page's content key (storage::PageReader::CacheKey).
/// For an archived version it is the Pagelog offset the snapshot page
/// table resolves a (page, snapshot) pair to: within one Pagelog
/// generation an offset names immutable archived bytes, globally unique
/// across every snapshot and every run over the store. For a page a
/// snapshot shares with the current state it is retro::SharedPageKey(page,
/// modification epoch): every later write archives the pre-state first
/// and moves the epoch on, so the pair never names two contents either —
/// which is what makes cross-run sharing sound: two runs that resolve the
/// same key are by construction reading the same bytes, so one fetch +
/// slot-walk + tuple-decode serves both. (`TruncateHistory` rewrites the
/// Pagelog, rebasing offsets and epochs, and starts a new generation; see
/// OnTruncateHistory below.)
///
/// The cache is a retro::CaptureListener: attached to its store, it is told
/// when a write archives a shared page, and re-keys the entry under the
/// new Pagelog offset — where the views of older snapshots now find the
/// same bytes through their SPT — instead of leaving a key nothing can
/// produce again. A decode of the retired key still in flight completes
/// for its waiters but is not published.
///
/// Sharing across runs and threads takes three things:
///
///  * A byte budget with segmented-LRU eviction. New entries land in a
///    probationary segment and are promoted to a protected segment on
///    re-hit, so a single cold sweep over a long history (all
///    first-touch entries) can only thrash probation and cannot evict
///    other runs' re-used working sets. Eviction drops the cache's own
///    reference; runs still holding the shared_ptr keep the entry (and
///    its pin) alive until their batches finish.
///  * Per-version single-flight decoding. N runs racing on a cold
///    version claim it once: the first caller decodes, the rest block on
///    the in-flight entry and are served the published result, mirroring
///    storage::BufferPool's coalesced loads one layer up.
///  * Conservative invalidation from TruncateHistory, the same contract
///    as retro::MemoTable::InvalidateBelow: truncation rebases Pagelog
///    offsets and recomputes modification epochs, so every cached key is
///    suspect and the cache is cleared outright. Stale hits are impossible afterwards; the cost
///    is re-decoding on the next run.
///
/// Sharded like BufferPool so concurrent runs on different versions do
/// not contend; LRU order is approximate across the cache, exact within
/// a shard.
class SharedScanCache : public retro::CaptureListener {
 public:
  struct Options {
    /// Budget across all shards; 0 = unbounded (never evicts).
    uint64_t max_bytes = 256ull << 20;
    int shards = 16;
    /// Share of each shard's budget the protected segment may occupy
    /// before its tail is demoted back to probation.
    double protected_fraction = 0.8;
  };

  struct Stats {
    int64_t shared_hits = 0;        // Acquire/Lookup served from the table
    int64_t misses = 0;             // Acquire that claimed a decode
    int64_t coalesced_decodes = 0;  // hits served by waiting on a decode
    int64_t inserts = 0;            // entries published (== decodes done)
    int64_t abandoned_decodes = 0;  // claims released without publishing
    int64_t evictions = 0;
    int64_t truncate_invalidations = 0;
    /// Shared-page keys retired at capture: entries re-keyed to (or
    /// dropped in favour of) their Pagelog offset, plus in-flight decodes
    /// marked unpublishable.
    int64_t retired = 0;
    uint64_t bytes = 0;
    uint64_t entries = 0;
  };

  /// Result of Acquire(): either a published entry (`page` non-null), a
  /// decode claim (`claimed` — the caller MUST follow up with Insert or
  /// AbandonDecode for the same version), or neither (an in-flight decode
  /// the caller waited on was abandoned; fall through to a plain,
  /// uncached read).
  struct AcquireResult {
    std::shared_ptr<const DecodedPage> page;
    bool claimed = false;
    bool coalesced = false;  // hit was served by waiting on a decode
  };

  SharedScanCache() : SharedScanCache(Options()) {}
  explicit SharedScanCache(Options options);
  ~SharedScanCache() override;
  SharedScanCache(const SharedScanCache&) = delete;
  SharedScanCache& operator=(const SharedScanCache&) = delete;

  /// The cached entry for `version`, or nullptr.
  std::shared_ptr<const DecodedPage> Lookup(uint64_t version);

  /// True when `version` is resident right now. A pure probe — no stats,
  /// no LRU touch, no waiting on in-flight decodes — for a background
  /// prefetch planner deciding whether fetching the raw page would be
  /// wasted work. Thread-safe like every other entry point.
  bool Contains(uint64_t version) const;

  /// Single-flight acquire: a table hit returns the entry; a cold version
  /// claims the decode for this caller; a version another thread is
  /// already decoding blocks until that decode publishes (coalesced hit)
  /// or abandons (fall through to an uncached read).
  AcquireResult Acquire(uint64_t version);

  /// Publishes and releases the claim on `version`, waking every waiter
  /// with the entry. Evicts least-recently-used probationary entries if
  /// the shard runs over budget.
  std::shared_ptr<const DecodedPage> Insert(
      uint64_t version, std::shared_ptr<const DecodedPage> page);

  /// Releases the claim on `version` without publishing (the fetch or
  /// decode failed); waiters are woken empty-handed and fall back to
  /// plain uncached reads.
  void AbandonDecode(uint64_t version);

  /// Drops every entry (and the pins it holds; entries a scan still
  /// holds stay alive through their shared_ptr).
  void Clear();
  uint64_t size() const;

  /// TruncateHistory invalidation hook (conservative, like
  /// MemoTable::InvalidateBelow): offsets at or above the rewrite are
  /// rebased and freed ranges may be recycled, so every version key is
  /// suspect — drop everything. `keep_from` is accepted for contract
  /// symmetry; no finer-grained retention is attempted. In-flight decodes
  /// complete for their waiters but are not published.
  void OnTruncateHistory(uint64_t keep_from);

  /// retro::CaptureListener: the shared page keyed `shared_key` was just
  /// archived at `pagelog_offset`. Moves a resident entry to the offset key
  /// (dropping it if that key is already taken) and marks an in-flight
  /// decode of `shared_key` stale. Runs under the store's exclusive lock
  /// and takes shard mutexes one at a time, never the other way round.
  void OnSharedPageCaptured(uint64_t shared_key,
                            uint64_t pagelog_offset) override;

  Stats GetStats() const;
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Registers point-in-time gauges `<prefix>.bytes`, `.entries`,
  /// `.evictions`, `.shared_hits`, `.misses`, `.coalesced_decodes`,
  /// `.capacity_bytes`. The returned handle deregisters them; it must not
  /// outlive this cache (`Registry` is templated so the gauge set stays
  /// usable with any registry exposing SetGauge/RemoveGaugesWithPrefix).
  template <typename Registry>
  [[nodiscard]] ScopedCleanup RegisterMetrics(Registry* registry,
                                              const std::string& prefix) {
    const SharedScanCache* cache = this;
    registry->SetGauge(prefix + ".bytes", [cache] {
      return static_cast<int64_t>(cache->bytes());
    });
    registry->SetGauge(prefix + ".entries", [cache] {
      return static_cast<int64_t>(cache->size());
    });
    registry->SetGauge(prefix + ".evictions",
                       [cache] { return cache->evictions(); });
    registry->SetGauge(prefix + ".shared_hits", [cache] {
      return cache->shared_hits_.load(std::memory_order_relaxed);
    });
    registry->SetGauge(prefix + ".misses", [cache] {
      return cache->misses_.load(std::memory_order_relaxed);
    });
    registry->SetGauge(prefix + ".coalesced_decodes", [cache] {
      return cache->coalesced_.load(std::memory_order_relaxed);
    });
    registry->SetGauge(prefix + ".capacity_bytes", [cache] {
      return static_cast<int64_t>(cache->options_.max_bytes);
    });
    return ScopedCleanup(
        [registry, prefix] { registry->RemoveGaugesWithPrefix(prefix + "."); });
  }

  /// Approximate resident size of one decoded page: the pinned frame plus
  /// the decoded slots/records/rows. The budget accounting charge.
  static uint64_t EstimateBytes(const DecodedPage& page);

 private:
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    /// Set by Clear/OnTruncateHistory while the decode is in flight (the
    /// result may be keyed by a rebased offset) or by a capture retiring
    /// its shared-page key: it must not be published. Late arrivals skip
    /// stale claims entirely.
    bool stale = false;
    std::shared_ptr<const DecodedPage> page;  // null when abandoned
  };

  struct Entry {
    std::shared_ptr<const DecodedPage> page;
    uint64_t bytes = 0;
    bool protected_seg = false;
    std::list<uint64_t>::iterator lru_it;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
    /// Both lists are MRU-at-front; Entry::lru_it points into the list
    /// named by Entry::protected_seg.
    std::list<uint64_t> probation;
    std::list<uint64_t> protected_lru;
    uint64_t bytes = 0;
    uint64_t protected_bytes = 0;
    uint64_t quota = 0;            // 0 = unbounded
    uint64_t protected_quota = 0;
    std::unordered_map<uint64_t, std::shared_ptr<InFlight>> inflight;
  };

  Shard* ShardFor(uint64_t version);
  /// Moves a hit entry to the MRU end of the protected segment (promoting
  /// probationary entries) and rebalances the segments. Caller holds
  /// shard->mu.
  void Touch(Shard* shard, Entry* entry, uint64_t version);
  /// Links `entry` (page and bytes set) at the MRU end of probation and
  /// evicts down to quota. Caller holds shard->mu; `version` is absent.
  void AddEntry(Shard* shard, uint64_t version, Entry entry);
  /// Evicts from probation tail first, then protected, until the shard is
  /// within quota. Caller holds shard->mu.
  void EvictIfNeeded(Shard* shard);
  void RemoveEntry(Shard* shard, uint64_t version, Entry* entry);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> bytes_{0};
  std::atomic<int64_t> shared_hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> abandons_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> truncate_invalidations_{0};
  std::atomic<int64_t> retired_{0};
};

}  // namespace rql::sql

#endif  // RQL_SQL_SHARED_SCAN_CACHE_H_
