// SharedScanCache lifetime and concurrency edges: segmented-LRU budget
// accounting, eviction while a reader still holds the entry, per-version
// single-flight decode (publish, abandon, and truncation-stale paths),
// conservative TruncateHistory invalidation with a run in progress, the
// scoped metrics handle, shared-page keys retired at capture (re-keyed,
// or suppressed while a decode is in flight), and TSan-able stress mixes
// of concurrent attached engines and of scans racing a writer, validated
// against uncached oracles; and the compact decoded-page layout: four read
// paths (cached and uncached, batch and row) byte-identical over edge
// values, and the per-entry charge of a TPC-H orders page.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "retro/metrics.h"
#include "rql/rql.h"
#include "sql/heap_table.h"
#include "sql/shared_scan_cache.h"
#include "storage/env.h"
#include "storage/page.h"
#include "tpch/tpch.h"

namespace rql {
namespace {

using sql::DecodedPage;
using sql::Row;
using sql::SharedScanCache;
using sql::Value;

/// A decoded page whose EstimateBytes charge is kPageSize + overhead,
/// tagged with `tag` so tests can tell entries apart.
std::shared_ptr<const DecodedPage> MakePage(int64_t tag) {
  return sql::DecodeRows({Row{Value::Integer(tag)}});
}

int64_t PageTag(const DecodedPage& page) { return page.cell(0, 0).integer(); }

TEST(SharedScanCacheTest, SingleFlightProtocolSingleThread) {
  SharedScanCache cache;
  SharedScanCache::AcquireResult r = cache.Acquire(7);
  EXPECT_EQ(r.page, nullptr);
  EXPECT_TRUE(r.claimed);

  auto published = cache.Insert(7, MakePage(70));
  EXPECT_EQ(PageTag(*published), 70);
  EXPECT_EQ(cache.size(), 1u);

  r = cache.Acquire(7);
  ASSERT_NE(r.page, nullptr);
  EXPECT_EQ(PageTag(*r.page), 70);
  EXPECT_FALSE(r.claimed);
  EXPECT_FALSE(r.coalesced);
  EXPECT_EQ(PageTag(*cache.Lookup(7)), 70);
  EXPECT_EQ(cache.Lookup(8), nullptr);

  SharedScanCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 1);
  EXPECT_EQ(s.shared_hits, 2);  // Acquire hit + Lookup hit
  EXPECT_EQ(s.coalesced_decodes, 0);
}

TEST(SharedScanCacheTest, BudgetEvictsProbationFirstAndHeldEntriesSurvive) {
  // One shard for deterministic LRU; room for roughly two resident pages.
  SharedScanCache::Options opt;
  opt.shards = 1;
  opt.max_bytes = 2 * storage::kPageSize + storage::kPageSize / 2;
  SharedScanCache cache(opt);

  ASSERT_TRUE(cache.Acquire(1).claimed);
  auto held = cache.Insert(1, MakePage(10));
  ASSERT_TRUE(cache.Acquire(2).claimed);
  cache.Insert(2, MakePage(20));

  // Re-hit version 1: promoted to the protected segment, so the later
  // over-budget insert must evict probationary version 2, not it.
  ASSERT_NE(cache.Lookup(1), nullptr);

  ASSERT_TRUE(cache.Acquire(3).claimed);
  cache.Insert(3, MakePage(30));

  SharedScanCache::Stats s = cache.GetStats();
  EXPECT_GE(s.evictions, 1);
  EXPECT_NE(cache.Lookup(1), nullptr) << "protected entry was evicted";
  EXPECT_EQ(cache.Lookup(2), nullptr) << "probationary entry survived";

  // The evicted version is decodable again (a fresh claim), and the
  // shared_ptr held across the eviction still reads its rows.
  EXPECT_TRUE(cache.Acquire(2).claimed);
  cache.AbandonDecode(2);
  EXPECT_EQ(PageTag(*held), 10);

  // Byte accounting stays exact across insert/evict cycles.
  uint64_t expect_bytes = 0;
  for (uint64_t v : {1, 3}) {
    auto page = cache.Lookup(v);
    ASSERT_NE(page, nullptr);
    expect_bytes += SharedScanCache::EstimateBytes(*page);
  }
  EXPECT_EQ(cache.bytes(), expect_bytes);
}

TEST(SharedScanCacheTest, CoalescedWaiterIsServedThePublishedPage) {
  SharedScanCache cache;
  ASSERT_TRUE(cache.Acquire(5).claimed);

  std::atomic<bool> waiter_started{false};
  SharedScanCache::AcquireResult waited;
  std::thread waiter([&] {
    waiter_started.store(true);
    waited = cache.Acquire(5);
  });
  while (!waiter_started.load()) std::this_thread::yield();
  // Give the waiter a beat to block on the in-flight decode.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  cache.Insert(5, MakePage(50));
  waiter.join();

  ASSERT_NE(waited.page, nullptr);
  EXPECT_EQ(PageTag(*waited.page), 50);
  EXPECT_FALSE(waited.claimed);
  EXPECT_TRUE(waited.coalesced);
  EXPECT_EQ(cache.GetStats().coalesced_decodes, 1);
}

TEST(SharedScanCacheTest, AbandonedDecodeWakesWaitersEmptyHanded) {
  SharedScanCache cache;
  ASSERT_TRUE(cache.Acquire(9).claimed);

  SharedScanCache::AcquireResult waited;
  std::thread waiter([&] { waited = cache.Acquire(9); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  cache.AbandonDecode(9);
  waiter.join();

  // The waiter falls back to an uncached read: no page, no claim.
  EXPECT_EQ(waited.page, nullptr);
  EXPECT_FALSE(waited.claimed);
  EXPECT_FALSE(waited.coalesced);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.GetStats().abandoned_decodes, 1);

  // The version is claimable again afterwards.
  EXPECT_TRUE(cache.Acquire(9).claimed);
  cache.Insert(9, MakePage(90));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedScanCacheTest, ClearDuringInflightDecodeSuppressesPublish) {
  SharedScanCache cache;
  ASSERT_TRUE(cache.Acquire(3).claimed);
  cache.Clear();  // truncation path: the in-flight claim is now stale

  // A late arrival must neither wait on the stale claim nor re-claim the
  // suspect version: plain uncached read.
  SharedScanCache::AcquireResult late = cache.Acquire(3);
  EXPECT_EQ(late.page, nullptr);
  EXPECT_FALSE(late.claimed);

  // The claimant completes, but nothing is published under the (possibly
  // rebased) key.
  cache.Insert(3, MakePage(33));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(3), nullptr);
}

TEST(SharedScanCacheTest, CaptureReKeysResidentEntryToItsOffset) {
  SharedScanCache cache;
  const uint64_t shared_key = (1ull << 63) | 42;
  ASSERT_TRUE(cache.Acquire(shared_key).claimed);
  auto held = cache.Insert(shared_key, MakePage(7));
  const uint64_t bytes = cache.bytes();

  cache.OnSharedPageCaptured(shared_key, 4096);
  EXPECT_EQ(cache.Lookup(shared_key), nullptr);
  auto moved = cache.Lookup(4096);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved.get(), held.get()) << "re-keyed, not re-decoded";
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), bytes);
  SharedScanCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.retired, 1);
  EXPECT_EQ(s.inserts, 1);

  // A key nothing cached is no retirement; an offset already taken keeps
  // its entry and the retired one is dropped.
  cache.OnSharedPageCaptured((1ull << 63) | 43, 8192);
  EXPECT_EQ(cache.GetStats().retired, 1);
  ASSERT_TRUE(cache.Acquire(shared_key + 1).claimed);
  cache.Insert(shared_key + 1, MakePage(8));
  cache.OnSharedPageCaptured(shared_key + 1, 4096);
  EXPECT_EQ(PageTag(*cache.Lookup(4096)), 7);
  EXPECT_EQ(cache.Lookup(shared_key + 1), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.GetStats().retired, 2);
}

TEST(SharedScanCacheTest, CaptureDuringInflightDecodeSuppressesPublish) {
  SharedScanCache cache;
  const uint64_t shared_key = (1ull << 63) | 9;
  ASSERT_TRUE(cache.Acquire(shared_key).claimed);
  cache.OnSharedPageCaptured(shared_key, 512);
  EXPECT_EQ(cache.GetStats().retired, 1);

  SharedScanCache::AcquireResult late = cache.Acquire(shared_key);
  EXPECT_EQ(late.page, nullptr);
  EXPECT_FALSE(late.claimed);

  // The claimant's result still serves the claimant, but is published
  // neither under the retired key nor under the offset.
  auto served = cache.Insert(shared_key, MakePage(99));
  EXPECT_EQ(PageTag(*served), 99);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains(shared_key));
  EXPECT_FALSE(cache.Contains(512));
}

TEST(SharedScanCacheTest, TruncateInvalidationIsConservative) {
  SharedScanCache cache;
  for (uint64_t v = 1; v <= 8; ++v) {
    ASSERT_TRUE(cache.Acquire(v).claimed);
    cache.Insert(v, MakePage(static_cast<int64_t>(v)));
  }
  auto held = cache.Lookup(2);
  ASSERT_NE(held, nullptr);

  // keep_from only removes versions below it at the store level, but the
  // cache must drop everything: truncation rebases every offset.
  cache.OnTruncateHistory(4);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.GetStats().truncate_invalidations, 1);
  EXPECT_EQ(PageTag(*held), 2) << "held entry must outlive invalidation";
}

TEST(SharedScanCacheTest, MetricsHandleRegistersAndDeregisters) {
  retro::MetricsRegistry registry;
  SharedScanCache cache;
  ASSERT_TRUE(cache.Acquire(1).claimed);
  cache.Insert(1, MakePage(1));
  {
    ScopedCleanup gauges = cache.RegisterMetrics(&registry, "scan");
    retro::MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
    EXPECT_EQ(snap.gauges.at("scan.entries"), 1);
    EXPECT_GT(snap.gauges.at("scan.bytes"), 0);
    EXPECT_EQ(snap.gauges.at("scan.misses"), 1);
  }
  // The scoped handle removed the gauges: no dangling reads of a cache
  // that may be destroyed before the registry.
  EXPECT_EQ(registry.TakeSnapshot().gauges.count("scan.entries"), 0u);
}

TEST(SharedScanCacheTest, RandomizedConcurrentProtocolMix) {
  // TSan fodder: claims, publishes, abandons, lookups and clears race on
  // a small version space and a small budget (so eviction runs too).
  SharedScanCache::Options opt;
  opt.shards = 2;
  opt.max_bytes = 8 * storage::kPageSize;
  SharedScanCache cache(opt);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  constexpr uint64_t kVersions = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t version = (state >> 33) % kVersions;
        switch ((state >> 20) % 8) {
          case 0:
            cache.Clear();
            break;
          case 1:
            (void)cache.Lookup(version);
            break;
          default: {
            SharedScanCache::AcquireResult r = cache.Acquire(version);
            if (r.page != nullptr) {
              EXPECT_EQ(PageTag(*r.page), static_cast<int64_t>(version));
            } else if (r.claimed) {
              if ((state >> 10) % 4 == 0) {
                cache.AbandonDecode(version);
              } else {
                cache.Insert(version, MakePage(static_cast<int64_t>(version)));
              }
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SharedScanCache::Stats s = cache.GetStats();
  EXPECT_GT(s.misses, 0);
  EXPECT_GT(s.inserts, 0);
  EXPECT_LE(s.entries, kVersions);
}

// --- engine-level lifetime edges -------------------------------------------

struct EngineFixture {
  std::unique_ptr<storage::InMemoryEnv> env =
      std::make_unique<storage::InMemoryEnv>();
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;
  retro::SnapshotId last_snap = retro::kNoSnapshot;
};

/// A small multi-page history: `t` spans several heap pages and a slice
/// of it is updated before every snapshot, so consecutive snapshots
/// share most page versions (the shape the shared cache serves).
EngineFixture MakeHistory(int snapshots, RqlOptions options = RqlOptions()) {
  EngineFixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine =
      std::make_unique<RqlEngine>(f.data.get(), f.meta.get(), options);
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  EXPECT_TRUE(
      f.data->Exec("CREATE TABLE t (k INTEGER, v INTEGER)").ok());
  for (int k = 0; k < 600; ++k) {
    EXPECT_TRUE(f.data
                    ->AppendRow("t", {Value::Integer(k),
                                      Value::Integer(k * 10)})
                    .ok());
  }
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(f.data->Exec("BEGIN").ok());
    EXPECT_TRUE(f.data
                    ->Exec("UPDATE t SET v = v + 1 WHERE k % 37 = " +
                           std::to_string(s % 37))
                    .ok());
    auto snap = f.engine->CommitWithSnapshot("ts-" + std::to_string(s));
    EXPECT_TRUE(snap.ok());
    if (snap.ok()) f.last_snap = *snap;
  }
  return f;
}

std::string QsRange(retro::SnapshotId first, retro::SnapshotId last) {
  return "SELECT snap_id FROM SnapIds WHERE snap_id >= " +
         std::to_string(first) + " AND snap_id <= " + std::to_string(last) +
         " ORDER BY snap_id";
}

std::vector<std::string> CollectRows(sql::Database* meta,
                                     const std::string& table) {
  auto rows = meta->Query("SELECT * FROM " + table);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> out;
  if (rows.ok()) {
    for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
  }
  return out;
}

constexpr char kQq[] = "SELECT k, v FROM t WHERE v % 3 = 0";

TEST(SharedScanCacheEngineTest, TruncateHistoryInvalidatesMidLifeCache) {
  SharedScanCache cache;
  RqlOptions options;
  options.shared_scan_cache = &cache;
  EngineFixture f = MakeHistory(12, options);

  const std::string qs_all = QsRange(1, f.last_snap);
  ASSERT_TRUE(f.engine->CollateData(qs_all, kQq, "Out").ok());
  ASSERT_GT(cache.size(), 0u) << "run should have populated the cache";
  std::vector<std::string> before = CollectRows(f.meta.get(), "Out");
  ASSERT_FALSE(before.empty());

  // Retention drops snapshots below 7 and rewrites the Pagelog; the
  // engine's hook must clear the store-scoped cache outright.
  const retro::SnapshotId keep_from = 7;
  ASSERT_TRUE(f.engine->TruncateHistory(keep_from).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.GetStats().truncate_invalidations, 1);

  // Post-truncation runs decode fresh offsets and must agree with a
  // cache-less engine reading the same (attached) store.
  ASSERT_TRUE(f.engine->CollateData(QsRange(keep_from, f.last_snap), kQq,
                                    "OutAfter")
                  .ok());
  auto oracle_data = sql::Database::Attach(f.data->store());
  ASSERT_TRUE(oracle_data.ok());
  auto oracle_env = std::make_unique<storage::InMemoryEnv>();
  auto oracle_meta = sql::Database::Open(oracle_env.get(), "meta");
  ASSERT_TRUE(oracle_meta.ok());
  RqlOptions oracle_options;
  oracle_options.batch_execution = false;
  RqlEngine oracle(oracle_data->get(), oracle_meta->get(), oracle_options);
  ASSERT_TRUE(oracle.EnsureSnapIds().ok());
  for (retro::SnapshotId s = keep_from; s <= f.last_snap; ++s) {
    ASSERT_TRUE((*oracle_meta)
                    ->AppendRow("SnapIds",
                                {Value::Integer(s), Value::Text("ts"),
                                 Value::Text("")})
                    .ok());
  }
  ASSERT_TRUE(
      oracle.CollateData(QsRange(keep_from, f.last_snap), kQq, "Oracle")
          .ok());
  EXPECT_EQ(CollectRows(f.meta.get(), "OutAfter"),
            CollectRows(oracle_meta->get(), "Oracle"));
}

TEST(SharedScanCacheEngineTest, ConcurrentAttachedRunsMatchSequentialOracle) {
  EngineFixture f = MakeHistory(16);
  const std::string qs = QsRange(1, f.last_snap);

  // Sequential flag-off oracle on the owning engine.
  f.engine->mutable_options()->batch_execution = false;
  ASSERT_TRUE(f.engine->CollateData(qs, kQq, "Oracle").ok());
  const std::vector<std::string> oracle = CollectRows(f.meta.get(), "Oracle");
  ASSERT_FALSE(oracle.empty());

  // The daemon configuration: one cache for every client, and SPT builds
  // shared across runs (the store owner's switch, not the engine's).
  SharedScanCache cache;
  f.data->store()->set_share_spt_builds(true);
  constexpr int kClients = 4;
  struct Client {
    std::unique_ptr<storage::InMemoryEnv> env;
    std::unique_ptr<sql::Database> meta;
    std::unique_ptr<sql::Database> data;
    std::unique_ptr<RqlEngine> engine;
    Status status = Status::OK();
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t coalesced = 0;
  };
  std::vector<Client> clients(kClients);
  for (Client& c : clients) {
    c.env = std::make_unique<storage::InMemoryEnv>();
    auto meta = sql::Database::Open(c.env.get(), "meta");
    auto data = sql::Database::Attach(f.data->store());
    ASSERT_TRUE(meta.ok() && data.ok());
    c.meta = std::move(*meta);
    c.data = std::move(*data);
    RqlOptions options;
    options.shared_scan_cache = &cache;
    options.cold_cache_per_run = false;
    c.engine =
        std::make_unique<RqlEngine>(c.data.get(), c.meta.get(), options);
    ASSERT_TRUE(c.engine->EnsureSnapIds().ok());
    for (retro::SnapshotId s = 1; s <= f.last_snap; ++s) {
      ASSERT_TRUE(c.meta
                      ->AppendRow("SnapIds",
                                  {Value::Integer(s), Value::Text("ts"),
                                   Value::Text("")})
                      .ok());
    }
  }

  // Two rounds: the first mixes cold decodes with cross-run hits, the
  // second must run almost entirely out of the warm shared cache.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> threads;
    for (Client& c : clients) {
      threads.emplace_back([&c, &qs] {
        c.status = c.engine->CollateData(qs, kQq, "Out");
        if (!c.status.ok()) return;
        const RqlRunStats& stats = c.engine->last_run_stats();
        c.hits += stats.shared_page_hits;
        c.misses += stats.scan_cache_misses;
        c.coalesced += stats.coalesced_decodes;
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < kClients; ++i) {
      ASSERT_TRUE(clients[i].status.ok())
          << "round " << round << ": " << clients[i].status.ToString();
      EXPECT_EQ(CollectRows(clients[i].meta.get(), "Out"), oracle)
          << "client " << i << " diverged in round " << round;
    }
  }

  // Per-iteration attribution is exact under concurrency: the clients'
  // harvested counters must sum to the cache's own totals (the default
  // budget is far above this working set, so nothing was evicted and
  // re-decoded invisibly).
  SharedScanCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.evictions, 0);
  int64_t hits = 0, misses = 0, coalesced = 0;
  for (const Client& c : clients) {
    hits += c.hits;
    misses += c.misses;
    coalesced += c.coalesced;
  }
  EXPECT_EQ(hits, s.shared_hits);
  EXPECT_EQ(misses, s.misses);
  EXPECT_EQ(coalesced, s.coalesced_decodes);
  EXPECT_GT(hits, 0);
  EXPECT_EQ(s.inserts, static_cast<int64_t>(s.entries));
}

// --- shared-page keys retired by a concurrent writer -----------------------

storage::PageId TableRoot(sql::Database* data, const std::string& table) {
  const sql::TableInfo* info = data->catalog()->data().FindTable(table);
  EXPECT_NE(info, nullptr);
  return info == nullptr ? storage::kInvalidPageId : info->root;
}

/// Encoded rows of one heap scan through `reader`, row or batch path,
/// with or without a decoded-page cache.
std::vector<std::string> ScanRows(storage::PageReader* reader,
                                  storage::PageId root,
                                  SharedScanCache* cache, bool batch) {
  std::vector<std::string> out;
  if (batch) {
    auto it = sql::HeapTable::ScanBatches(reader, root, cache);
    for (; it.Valid(); it.Next()) {
      const sql::RowBatch& b = it.batch();
      Row row;
      for (uint32_t i = 0; i < b.size(); ++i) {
        b.page->MaterializeRow(i, &row);
        out.push_back(sql::EncodeRow(row));
      }
    }
    EXPECT_TRUE(it.status().ok()) << it.status().ToString();
    return out;
  }
  auto it = sql::HeapTable::Scan(reader, root, cache);
  for (; it.Valid(); it.Next()) {
    Row cached;
    if (it.cached_row(&cached)) {
      out.push_back(sql::EncodeRow(cached));
      continue;
    }
    auto row = sql::DecodeRow(it.record());
    EXPECT_TRUE(row.ok()) << row.status().ToString();
    if (row.ok()) out.push_back(sql::EncodeRow(*row));
  }
  EXPECT_TRUE(it.status().ok()) << it.status().ToString();
  return out;
}

TEST(SharedScanCacheEngineTest, CaptureRetiresKeyWhileReaderHoldsClaim) {
  EngineFixture f = MakeHistory(4);
  retro::SnapshotStore* store = f.data->store();
  SharedScanCache cache;
  ScopedCleanup attached = store->AttachCaptureListener(&cache);
  const storage::PageId root = TableRoot(f.data.get(), "t");

  // Every page of `t` was rewritten before the last snapshot and not
  // since: the last snapshot shares them with the current state.
  auto view = store->OpenSnapshot(f.last_snap);
  ASSERT_TRUE(view.ok());
  uint64_t key = 0;
  ASSERT_TRUE((*view)->CacheKey(root, &key));
  ASSERT_NE(key & (1ull << 63), 0u);
  ASSERT_TRUE(cache.Acquire(key).claimed);
  auto pin = (*view)->ReadPagePinned(root);
  ASSERT_TRUE(pin.ok() && *pin);

  // The writer archives the page while the reader holds the claim.
  std::thread writer([&f] {
    EXPECT_TRUE(f.data->Exec("UPDATE t SET v = v + 1 WHERE k = 0").ok());
  });
  writer.join();
  EXPECT_EQ(cache.GetStats().retired, 1);
  uint64_t offset = 0;
  auto fresh = store->OpenSnapshot(f.last_snap);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE((*fresh)->CacheKey(root, &offset));
  EXPECT_EQ(offset & (1ull << 63), 0u);

  // The claimant finishes; nothing is published under either key.
  cache.Insert(key, MakePage(1));
  EXPECT_FALSE(cache.Contains(key));
  EXPECT_FALSE(cache.Contains(offset));
  EXPECT_EQ(cache.size(), 0u);

  // Every snapshot, scanned both ways through the cache, matches an
  // uncached scan, and the current state moved on.
  for (retro::SnapshotId s = 1; s <= f.last_snap; ++s) {
    auto v = store->OpenSnapshot(s);
    ASSERT_TRUE(v.ok());
    const std::vector<std::string> oracle =
        ScanRows(v->get(), root, nullptr, false);
    ASSERT_FALSE(oracle.empty());
    for (bool batch : {false, true}) {
      EXPECT_EQ(ScanRows(v->get(), root, &cache, batch), oracle)
          << "snapshot " << s << (batch ? " batch" : " row");
    }
  }
  EXPECT_NE(ScanRows(store, root, nullptr, false),
            ScanRows(fresh->get(), root, nullptr, false));
}

TEST(SharedScanCacheEngineTest, ScansRacingAWriterMatchUncachedOracle) {
  EngineFixture f = MakeHistory(3);
  retro::SnapshotStore* store = f.data->store();
  SharedScanCache cache;
  ScopedCleanup attached = store->AttachCaptureListener(&cache);
  const storage::PageId root = TableRoot(f.data.get(), "t");
  std::atomic<uint32_t> latest{f.last_snap};
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  {
    // Warm: the last snapshot shares every page of `t` with the current
    // state, so the writer's first update retires cached keys.
    auto view = store->OpenSnapshot(f.last_snap);
    ASSERT_TRUE(view.ok());
    ASSERT_FALSE(ScanRows(view->get(), root, &cache, false).empty());
  }

  std::thread writer([&] {
    Random rng(7);
    for (int i = 0; i < 40; ++i) {
      const std::string update =
          "UPDATE t SET v = v + 1 WHERE k % 37 = " +
          std::to_string(rng.Uniform(37));
      EXPECT_TRUE(f.data->Exec(update).ok());
      if (i % 2 == 1) {
        auto snap = f.engine->CommitWithSnapshot("w" + std::to_string(i));
        if (!snap.ok()) {
          ADD_FAILURE() << snap.status().ToString();
          break;
        }
        latest.store(*snap);
      }
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Random rng(100 + static_cast<uint64_t>(t));
      while (!done.load()) {
        const uint32_t last = latest.load();
        const uint32_t snap =
            rng.Uniform(2) == 0
                ? last
                : static_cast<uint32_t>(1 + rng.Uniform(last));
        auto view = store->OpenSnapshot(snap);
        ASSERT_TRUE(view.ok());
        const std::vector<std::string> oracle =
            ScanRows(view->get(), root, nullptr, false);
        if (ScanRows(view->get(), root, &cache, rng.Uniform(2) == 0) !=
            oracle) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(cache.GetStats().retired, 0);

  // Quiesced: whatever the races left in the cache serves every snapshot
  // exactly as the uncached path reads it.
  for (retro::SnapshotId s = 1; s <= latest.load(); ++s) {
    auto v = store->OpenSnapshot(s);
    ASSERT_TRUE(v.ok());
    const std::vector<std::string> oracle =
        ScanRows(v->get(), root, nullptr, false);
    for (bool batch : {false, true}) {
      EXPECT_EQ(ScanRows(v->get(), root, &cache, batch), oracle)
          << "snapshot " << s;
    }
  }
}

// --- compact decoded pages --------------------------------------------------

/// One value of the kinds the compact cell layout must carry exactly:
/// NULL, INT64 min/max, reals whose bit patterns differ while comparing
/// equal (-0.0 and 0.0), infinities, empty and long text.
Value EdgeValue(Random* rng) {
  switch (rng->Uniform(11)) {
    case 0: return Value::Null();
    case 1: return Value::Integer(std::numeric_limits<int64_t>::min());
    case 2: return Value::Integer(std::numeric_limits<int64_t>::max());
    case 3: return Value::Real(-0.0);
    case 4: return Value::Real(0.0);
    case 5: return Value::Real(-std::numeric_limits<double>::infinity());
    case 6: return Value::Real(std::numeric_limits<double>::denorm_min());
    case 7: return Value::Text("");
    case 8: return Value::Text(std::string(1 + rng->Uniform(200), 'x'));
    case 9: return Value::Integer(static_cast<int64_t>(rng->Uniform(5)));
    default: return Value::Text("O");
  }
}

/// Encoded rows of `SELECT AS OF snap * FROM w` through `data` with the
/// given execution path and cache, or the error it fails with.
std::vector<std::string> QueryAllRows(sql::Database* data,
                                      retro::SnapshotId snap, bool batch,
                                      SharedScanCache* cache) {
  data->set_batch_execution(batch);
  data->set_scan_cache(cache);
  auto result =
      data->Query("SELECT AS OF " + std::to_string(snap) + " * FROM w");
  data->set_scan_cache(nullptr);
  data->set_batch_execution(true);
  if (!result.ok()) return {"error: " + result.status().ToString()};
  std::vector<std::string> out;
  for (const Row& row : result->rows) out.push_back(sql::EncodeRow(row));
  return out;
}

class CompactPageDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

// Cached batch, uncached batch, cached row and plain row read every
// snapshot of an edge-value history byte for byte alike, at the heap and
// through SQL. The table's first record is sized to end exactly where the
// root page's slot directory begins, and the last snapshot holds records
// narrower and wider than the schema (written below the SQL layer), which
// every SQL path rejects with the same error.
TEST_P(CompactPageDifferentialTest, FourReadPathsAgree) {
  Random rng(GetParam());
  EngineFixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  ASSERT_TRUE(f.engine->EnsureSnapIds().ok());
  ASSERT_TRUE(f.data->Exec("CREATE TABLE w (k INTEGER, a REAL, b TEXT)").ok());
  // Two records fill the root page: records start at byte 16 and the two
  // 4-byte slots take the last 8 bytes; each row's encoding is
  // 4 + 9 + 9 + 5 + len bytes, so the second one's text ends exactly where
  // the slot directory begins.
  const size_t fill = storage::kPageSize - 8 - 16 - 2 * 27 - 2000;
  for (size_t len : {size_t{2000}, fill}) {
    ASSERT_TRUE(f.data
                    ->AppendRow("w", {Value::Integer(-1), Value::Real(-0.0),
                                      Value::Text(std::string(len, 'z'))})
                    .ok());
  }
  const storage::PageId root = TableRoot(f.data.get(), "w");
  {
    // Both filled the root page and nothing else fits beside them.
    ASSERT_TRUE(f.data->AppendRow("w", {Value::Integer(-2), Value::Null(),
                                        Value::Null()})
                    .ok());
    std::vector<storage::PageId> pages;
    for (auto it = sql::HeapTable::Scan(f.data->store(), root); it.Valid();
         it.Next()) {
      pages.push_back(sql::RidPage(it.rid()));
    }
    ASSERT_EQ(pages.size(), 3u);
    EXPECT_EQ(pages[0], root);
    EXPECT_EQ(pages[1], root);
    EXPECT_NE(pages[2], root);
  }
  for (int k = 0; k < 400; ++k) {
    ASSERT_TRUE(f.data
                    ->AppendRow("w", {Value::Integer(k), EdgeValue(&rng),
                                      EdgeValue(&rng)})
                    .ok());
  }
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(f.data->Exec("BEGIN").ok());
    ASSERT_TRUE(f.data
                    ->Exec("UPDATE w SET b = 'u" + std::to_string(s) +
                           "' WHERE k % 7 = " + std::to_string(s))
                    .ok());
    auto snap = f.engine->CommitWithSnapshot("s" + std::to_string(s));
    ASSERT_TRUE(snap.ok());
    f.last_snap = *snap;
  }
  {
    sql::HeapTable heap(f.data->store(), root);
    ASSERT_TRUE(heap.Insert(sql::EncodeRow({Value::Integer(7)})).ok());
    ASSERT_TRUE(heap.Insert(sql::EncodeRow({Value::Integer(8), Value::Null(),
                                            Value::Text(""),
                                            Value::Real(-0.0)}))
                    .ok());
  }
  auto snap = f.engine->CommitWithSnapshot("widths");
  ASSERT_TRUE(snap.ok());
  f.last_snap = *snap;

  retro::SnapshotStore* store = f.data->store();
  SharedScanCache cache;
  ScopedCleanup attached = store->AttachCaptureListener(&cache);
  for (int pass = 0; pass < 2; ++pass) {  // decode, then serve from cache
    for (retro::SnapshotId s = 1; s <= f.last_snap; ++s) {
      SCOPED_TRACE("pass " + std::to_string(pass) + ", snapshot " +
                   std::to_string(s));
      auto view = store->OpenSnapshot(s);
      ASSERT_TRUE(view.ok());
      const std::vector<std::string> plain_row =
          ScanRows(view->get(), root, nullptr, false);
      ASSERT_FALSE(plain_row.empty());
      ASSERT_GT(plain_row.size(), 2u);
      auto second = sql::DecodeRow(plain_row[1]);
      ASSERT_TRUE(second.ok());
      EXPECT_EQ((*second)[2].text(), std::string(fill, 'z'));
      EXPECT_EQ(ScanRows(view->get(), root, nullptr, true), plain_row);
      EXPECT_EQ(ScanRows(view->get(), root, &cache, false), plain_row);
      EXPECT_EQ(ScanRows(view->get(), root, &cache, true), plain_row);

      const std::vector<std::string> sql_plain =
          QueryAllRows(f.data.get(), s, false, nullptr);
      EXPECT_EQ(QueryAllRows(f.data.get(), s, true, nullptr), sql_plain);
      EXPECT_EQ(QueryAllRows(f.data.get(), s, false, &cache), sql_plain);
      EXPECT_EQ(QueryAllRows(f.data.get(), s, true, &cache), sql_plain);
      if (s == f.last_snap) {
        ASSERT_EQ(sql_plain.size(), 1u);
        EXPECT_EQ(sql_plain[0],
                  "error: Corruption: row arity mismatch in table w");
      } else {
        EXPECT_EQ(sql_plain, plain_row);
      }
    }
  }
  EXPECT_GT(cache.GetStats().shared_hits, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactPageDifferentialTest,
                         ::testing::Values(11, 12, 13));

// The compact layout's budget: a cached TPC-H orders page (five columns,
// about 70 rows) is charged at most two pages — its pinned 4 KiB frame
// plus at most as much again for slots, row offsets, tags and cells.
TEST(CompactPageTest, OrdersPageChargeIsAtMostTwoPages) {
  storage::InMemoryEnv env;
  auto db = sql::Database::Open(&env, "tpch");
  ASSERT_TRUE(db.ok());
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  tpch::TpchGenerator gen(db->get(), config);
  ASSERT_TRUE(gen.CreateSchema().ok());
  ASSERT_TRUE(gen.Populate().ok());
  const sql::TableInfo* orders =
      (*db)->catalog()->data().FindTable("orders");
  ASSERT_NE(orders, nullptr);
  int pages = 0;
  uint64_t max_bytes = 0;
  for (auto it = sql::HeapTable::ScanBatches((*db)->store(), orders->root);
       it.Valid(); it.Next()) {
    ++pages;
    max_bytes = std::max(max_bytes,
                         SharedScanCache::EstimateBytes(*it.batch().page));
  }
  ASSERT_GT(pages, 2);
  EXPECT_LE(max_bytes, 2 * storage::kPageSize);
  std::printf("orders: %d pages, largest entry charge %llu bytes\n", pages,
              static_cast<unsigned long long>(max_bytes));
}

}  // namespace
}  // namespace rql
