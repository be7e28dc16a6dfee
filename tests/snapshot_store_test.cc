#include "retro/snapshot_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace rql::retro {
namespace {

storage::Page TaggedPage(uint64_t tag) {
  storage::Page p;
  p.Zero();
  p.WriteU64(0, tag);
  return p;
}

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = SnapshotStore::Open(&env_, "t");
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  uint64_t ReadTag(storage::PageReader* reader, storage::PageId id) {
    storage::Page p;
    Status s = reader->ReadPage(id, &p);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return p.ReadU64(0);
  }

  storage::InMemoryEnv env_;
  std::unique_ptr<SnapshotStore> store_;
};

TEST_F(SnapshotStoreTest, SnapshotSeesPreStateAfterOverwrite) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());

  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());

  EXPECT_EQ(ReadTag(store_.get(), *id), 2u);
  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);
}

TEST_F(SnapshotStoreTest, UnmodifiedPagesAreSharedWithCurrentState) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(7)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());

  store_->ResetStats();
  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->spt_size(), 0u);
  EXPECT_EQ(ReadTag(view->get(), *id), 7u);
  EXPECT_EQ(store_->stats()->db_page_reads, 1);
  EXPECT_EQ(store_->stats()->pagelog_page_reads, 0);
}

TEST_F(SnapshotStoreTest, MultipleSnapshotsSeeTheirOwnStates) {
  auto id = store_->AllocatePage();
  for (uint64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(v)).ok());
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
  }
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(99)).ok());

  for (SnapshotId s = 1; s <= 5; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), s) << "snapshot " << s;
  }
  EXPECT_EQ(ReadTag(store_.get(), *id), 99u);
}

TEST_F(SnapshotStoreTest, ConsecutiveSnapshotsSharePreStates) {
  // One page modified once, then three snapshots declared, then modified:
  // all three snapshots must share a single archived pre-state.
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  ASSERT_TRUE(store_->DeclareSnapshot().ok());   // snap 1
  ASSERT_TRUE(store_->DeclareSnapshot().ok());   // snap 2
  ASSERT_TRUE(store_->DeclareSnapshot().ok());   // snap 3
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());

  EXPECT_EQ(store_->pagelog()->record_count(), 1u);

  // Reading the page as of snapshot 1 warms the cache; snapshots 2 and 3
  // then hit the cache because they share the same Pagelog location.
  store_->ClearSnapshotCache();
  store_->ResetStats();
  for (SnapshotId s = 1; s <= 3; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), 1u);
  }
  EXPECT_EQ(store_->stats()->pagelog_page_reads, 1);
  EXPECT_EQ(store_->stats()->snapshot_cache_hits, 2);
}

TEST_F(SnapshotStoreTest, WritesWithinOneEpochCaptureOnce) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  ASSERT_TRUE(store_->DeclareSnapshot().ok());
  for (uint64_t v = 2; v <= 10; ++v) {
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(v)).ok());
  }
  EXPECT_EQ(store_->pagelog()->record_count(), 1u);
  auto view = store_->OpenSnapshot(1);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);
}

TEST_F(SnapshotStoreTest, OpenViewStaysConsistentAcrossLaterUpdates) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());

  // Open the view while the page is still shared with the database.
  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->spt_size(), 0u);

  // Now overwrite the page; the open view must still see the pre-state
  // (the MVCC non-interference property from the paper's Section 4).
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);
  EXPECT_EQ(ReadTag(store_.get(), *id), 2u);
}

TEST_F(SnapshotStoreTest, CommitWithSnapshotDeclares) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(5)).ok());
  SnapshotId snap = kNoSnapshot;
  ASSERT_TRUE(store_->Commit(/*declare_snapshot=*/true, &snap).ok());
  EXPECT_EQ(snap, 1u);
  EXPECT_EQ(store_->latest_snapshot(), 1u);

  // The snapshot reflects the declaring transaction's own updates.
  auto view = store_->OpenSnapshot(snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 5u);
}

TEST_F(SnapshotStoreTest, RollbackRestoresPagesAndAllocations) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());

  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  auto extra = store_->AllocatePage();
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(store_->Rollback().ok());

  EXPECT_EQ(ReadTag(store_.get(), *id), 1u);
  EXPECT_EQ(store_->page_store()->allocated_pages(), 1u);
  EXPECT_FALSE(store_->in_transaction());
}

TEST_F(SnapshotStoreTest, RollbackAfterSnapshotKeepsAsOfStateCorrect) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());

  // The write captures the pre-state, then rolls back.
  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  ASSERT_TRUE(store_->Rollback().ok());

  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);
  EXPECT_EQ(ReadTag(store_.get(), *id), 1u);

  // A later write after another snapshot still yields correct history.
  auto snap2 = store_->DeclareSnapshot();
  ASSERT_TRUE(snap2.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(3)).ok());
  auto view2 = store_->OpenSnapshot(*snap2);
  ASSERT_TRUE(view2.ok());
  EXPECT_EQ(ReadTag(view2->get(), *id), 1u);
}

TEST_F(SnapshotStoreTest, FreedPageStillReadableInSnapshot) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(42)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(store_->FreePage(*id).ok());

  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 42u);
}

TEST_F(SnapshotStoreTest, DeferredFreeInsideTransaction) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(9)).ok());

  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->FreePage(*id).ok());
  ASSERT_TRUE(store_->Rollback().ok());
  EXPECT_EQ(ReadTag(store_.get(), *id), 9u);  // free undone

  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->FreePage(*id).ok());
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_EQ(store_->page_store()->allocated_pages(), 0u);
}

TEST_F(SnapshotStoreTest, StateRecoversAcrossReopen) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  store_.reset();

  auto reopened = SnapshotStore::Open(&env_, "t");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->latest_snapshot(), 1u);
  auto view = (*reopened)->OpenSnapshot(1);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);

  // Critically, a page last modified *after* the snapshot must not be
  // re-captured with a range covering the snapshot after reopen.
  ASSERT_TRUE((*reopened)->WritePage(*id, TaggedPage(3)).ok());
  auto view2 = (*reopened)->OpenSnapshot(1);
  ASSERT_TRUE(view2.ok());
  EXPECT_EQ(ReadTag(view2->get(), *id), 1u);
}

TEST_F(SnapshotStoreTest, UnknownSnapshotIdFails) {
  EXPECT_FALSE(store_->OpenSnapshot(1).ok());
  ASSERT_TRUE(store_->DeclareSnapshot().ok());
  EXPECT_TRUE(store_->OpenSnapshot(1).ok());
  EXPECT_FALSE(store_->OpenSnapshot(2).ok());
  EXPECT_FALSE(store_->OpenSnapshot(kNoSnapshot).ok());
}

TEST_F(SnapshotStoreTest, NestedBeginFails) {
  ASSERT_TRUE(store_->Begin().ok());
  EXPECT_FALSE(store_->Begin().ok());
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_FALSE(store_->Commit().ok());
  EXPECT_FALSE(store_->Rollback().ok());
}

TEST_F(SnapshotStoreTest, OverwriteCycleFetchCounts) {
  // Build a small database of 8 pages, snapshot, then overwrite all of
  // them: a query touching every page as of the snapshot fetches all 8
  // from the Pagelog (a complete overwrite cycle).
  std::vector<storage::PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = store_->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(100 + i)).ok());
    ids.push_back(*id);
  }
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store_->WritePage(ids[i], TaggedPage(200 + i)).ok());
  }

  store_->ClearSnapshotCache();
  store_->ResetStats();
  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ReadTag(view->get(), ids[i]), 100u + i);
  }
  EXPECT_EQ(store_->stats()->pagelog_page_reads, 8);
  EXPECT_EQ(store_->stats()->db_page_reads, 0);
}

TEST_F(SnapshotStoreTest, SnapshotSetSessionMatchesColdOpens) {
  // Two pages modified in different epochs; views opened inside a
  // snapshot-set session must read exactly what cold opens read, in any
  // visit order (ascending uses the cursor, descending falls back).
  auto a = store_->AllocatePage();
  auto b = store_->AllocatePage();
  for (uint64_t v = 1; v <= 6; ++v) {
    ASSERT_TRUE(store_->WritePage(*a, TaggedPage(10 * v)).ok());
    if (v % 2 == 0) {
      ASSERT_TRUE(store_->WritePage(*b, TaggedPage(100 * v)).ok());
    }
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
  }
  ASSERT_TRUE(store_->WritePage(*a, TaggedPage(999)).ok());
  ASSERT_TRUE(store_->WritePage(*b, TaggedPage(999)).ok());

  std::vector<std::pair<uint64_t, uint64_t>> cold;
  for (SnapshotId s = 1; s <= 6; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    cold.push_back({ReadTag(view->get(), *a), ReadTag(view->get(), *b)});
  }

  store_->BeginSnapshotSet();
  EXPECT_TRUE(store_->snapshot_set_active());
  for (SnapshotId s = 1; s <= 6; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *a), cold[s - 1].first) << "snap " << s;
    EXPECT_EQ(ReadTag(view->get(), *b), cold[s - 1].second) << "snap " << s;
  }
  // Descending re-visit inside the same session: rebase fallback.
  for (SnapshotId s = 6; s >= 1; --s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *a), cold[s - 1].first) << "snap " << s;
  }
  store_->EndSnapshotSet();
  EXPECT_FALSE(store_->snapshot_set_active());
}

TEST_F(SnapshotStoreTest, SnapshotSetSeesUpdatesCommittedMidSession) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  auto s1 = store_->DeclareSnapshot();
  ASSERT_TRUE(s1.ok());

  store_->BeginSnapshotSet();
  {
    auto view = store_->OpenSnapshot(*s1);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), 1u);
  }
  // History grows while the session is open (the cursor must ingest the
  // appended capture).
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  auto s2 = store_->DeclareSnapshot();
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(3)).ok());
  {
    auto view = store_->OpenSnapshot(*s2);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), 2u);
  }
  {
    auto view = store_->OpenSnapshot(*s1);  // backwards: rebase
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), 1u);
  }
  store_->EndSnapshotSet();
}

TEST_F(SnapshotStoreTest, IncrementalSessionScansFewerMaplogEntries) {
  auto id = store_->AllocatePage();
  const SnapshotId kSnaps = 64;
  for (uint64_t v = 1; v <= kSnaps; ++v) {
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(v)).ok());
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
  }
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(999)).ok());

  store_->ResetStats();
  for (SnapshotId s = 1; s <= kSnaps; ++s) {
    ASSERT_TRUE(store_->OpenSnapshot(s).ok());
  }
  int64_t cold_entries = store_->stats()->spt.entries_scanned;

  store_->ResetStats();
  store_->BeginSnapshotSet();
  for (SnapshotId s = 1; s <= kSnaps; ++s) {
    ASSERT_TRUE(store_->OpenSnapshot(s).ok());
  }
  store_->EndSnapshotSet();
  EXPECT_GT(store_->stats()->spt_delta_entries, 0);
  EXPECT_LT(store_->stats()->spt.entries_scanned, cold_entries);
}

TEST_F(SnapshotStoreTest, BatchedPrefetchWarmsCacheWithSameResults) {
  std::vector<storage::PageId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = store_->AllocatePage();
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(100 + i)).ok());
    ids.push_back(*id);
  }
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store_->WritePage(ids[i], TaggedPage(200 + i)).ok());
  }

  store_->ClearSnapshotCache();
  store_->ResetStats();
  store_->set_batch_archive_reads(true);
  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  // The prefetch fetched every archived page in one ordered pass...
  EXPECT_EQ(store_->stats()->batched_pagelog_reads, 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ReadTag(view->get(), ids[i]), 100u + i);
  }
  // ...so the demand path never touched the Pagelog.
  EXPECT_EQ(store_->stats()->pagelog_page_reads, 0);
  EXPECT_EQ(store_->stats()->snapshot_cache_hits, 6);
  store_->set_batch_archive_reads(false);

  // Second open with a warm cache: nothing left to prefetch.
  store_->ResetStats();
  store_->set_batch_archive_reads(true);
  ASSERT_TRUE(store_->OpenSnapshot(*snap).ok());
  EXPECT_EQ(store_->stats()->batched_pagelog_reads, 0);
  store_->set_batch_archive_reads(false);
}

// --- content keys of pages shared with the current state -------------------

constexpr uint64_t kSharedKeyBit = 1ull << 63;

/// Every (snapshot, page) key a view resolves, with CacheKey's verdict.
uint64_t KeyOf(SnapshotStore* store, SnapshotId snap, storage::PageId id) {
  auto view = store->OpenSnapshot(snap);
  EXPECT_TRUE(view.ok());
  uint64_t key = 0;
  EXPECT_TRUE((*view)->CacheKey(id, &key)) << "snapshot " << snap;
  return key;
}

TEST_F(SnapshotStoreTest, SharedPageKeyIsStableUntilCaptureThenRetired) {
  auto shared = store_->AllocatePage();
  auto churned = store_->AllocatePage();
  ASSERT_TRUE(shared.ok() && churned.ok());
  ASSERT_TRUE(store_->WritePage(*shared, TaggedPage(1)).ok());
  ASSERT_TRUE(store_->WritePage(*churned, TaggedPage(10)).ok());
  for (uint64_t v = 11; v <= 13; ++v) {
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
    ASSERT_TRUE(store_->WritePage(*churned, TaggedPage(v)).ok());
  }
  // Snapshots 1..3 share `shared` with the current state: one key, tagged
  // as a shared key and so never equal to a Pagelog offset; `churned` is
  // archived in each of them, under its own offset.
  const uint64_t key = KeyOf(store_.get(), 1, *shared);
  EXPECT_NE(key & kSharedKeyBit, 0u);
  for (SnapshotId s = 1; s <= 3; ++s) {
    EXPECT_EQ(KeyOf(store_.get(), s, *shared), key) << "snapshot " << s;
    const uint64_t offset = KeyOf(store_.get(), s, *churned);
    EXPECT_EQ(offset & kSharedKeyBit, 0u) << "snapshot " << s;
    EXPECT_NE(offset, key);
  }
  // The memo's version token is unchanged: a shared page has none.
  {
    auto view = store_->OpenSnapshot(2);
    ASSERT_TRUE(view.ok());
    uint64_t version = 0;
    EXPECT_FALSE((*view)->PageVersion(*shared, &version));
  }

  // A view opened before the write sees the capture: no key (ReadPage
  // refreshes its SPT), and a pinned read of the old key comes back empty.
  auto old_view = store_->OpenSnapshot(3);
  ASSERT_TRUE(old_view.ok());
  uint64_t before = 0;
  ASSERT_TRUE((*old_view)->CacheKey(*shared, &before));
  EXPECT_EQ(before, key);
  ASSERT_TRUE(store_->WritePage(*shared, TaggedPage(2)).ok());
  ASSERT_TRUE(store_->DeclareSnapshot().ok());  // snapshot 4
  auto pin = (*old_view)->ReadPagePinned(*shared);
  ASSERT_TRUE(pin.ok());
  EXPECT_FALSE(*pin);
  uint64_t after = 0;
  EXPECT_FALSE((*old_view)->CacheKey(*shared, &after));
  EXPECT_EQ(ReadTag(old_view->get(), *shared), 1u);
  ASSERT_TRUE((*old_view)->CacheKey(*shared, &after));
  EXPECT_EQ(after & kSharedKeyBit, 0u);

  // Old snapshots now resolve the page through the SPT, to one offset;
  // the newer snapshot shares the new content under a new key; the old
  // key is never produced again.
  const uint64_t archived = KeyOf(store_.get(), 1, *shared);
  EXPECT_EQ(archived & kSharedKeyBit, 0u);
  EXPECT_EQ(archived, after);
  for (SnapshotId s = 1; s <= 3; ++s) {
    EXPECT_EQ(KeyOf(store_.get(), s, *shared), archived);
  }
  const uint64_t fresh = KeyOf(store_.get(), 4, *shared);
  EXPECT_NE(fresh & kSharedKeyBit, 0u);
  EXPECT_NE(fresh, key);
  for (SnapshotId s = 1; s <= 4; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    for (storage::PageId id : {*shared, *churned}) {
      uint64_t k = 0;
      if ((*view)->CacheKey(id, &k)) {
        EXPECT_NE(k, key) << "snapshot " << s;
      }
    }
  }
}

TEST_F(SnapshotStoreTest, PinnedReadOfSharedPageIsAPrivateCopy) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(5)).ok());
  ASSERT_TRUE(store_->DeclareSnapshot().ok());
  auto view = store_->OpenSnapshot(1);
  ASSERT_TRUE(view.ok());
  uint64_t key = 0;
  ASSERT_TRUE((*view)->CacheKey(*id, &key));
  store_->ResetStats();
  auto pin = (*view)->ReadPagePinned(*id);
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE(*pin);
  EXPECT_EQ((*pin)->ReadU64(0), 5u);
  EXPECT_EQ(store_->stats()->db_page_reads, 1);
  // Later writes do not reach the copy.
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(6)).ok());
  EXPECT_EQ((*pin)->ReadU64(0), 5u);
}

/// Records every capture notification.
struct RecordingListener : CaptureListener {
  void OnSharedPageCaptured(uint64_t shared_key,
                            uint64_t pagelog_offset) override {
    calls.emplace_back(shared_key, pagelog_offset);
  }
  std::vector<std::pair<uint64_t, uint64_t>> calls;
};

TEST_F(SnapshotStoreTest, CaptureListenersLearnRetiredKeys) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  ASSERT_TRUE(store_->DeclareSnapshot().ok());
  const uint64_t key = KeyOf(store_.get(), 1, *id);

  RecordingListener listener;
  {
    // Nested attachments notify once per capture and detach together.
    ScopedCleanup outer = store_->AttachCaptureListener(&listener);
    ScopedCleanup inner = store_->AttachCaptureListener(&listener);
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
    ASSERT_EQ(listener.calls.size(), 1u);
    EXPECT_EQ(listener.calls[0].first, key);
    EXPECT_EQ(listener.calls[0].second, KeyOf(store_.get(), 1, *id));
    // A second write in the same epoch captures nothing.
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(3)).ok());
    EXPECT_EQ(listener.calls.size(), 1u);
    inner.Reset();
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(4)).ok());
    EXPECT_EQ(listener.calls.size(), 2u);
  }
  ASSERT_TRUE(store_->DeclareSnapshot().ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(5)).ok());
  EXPECT_EQ(listener.calls.size(), 2u);
}

/// Randomized: commits, snapshot declarations, views and reads interleave
/// (on one thread, or a writer and three readers), and whenever two reads
/// resolve the same content key their page bytes are identical — and
/// equal to the page as of the read's snapshot.
void RunContentKeyProperty(uint64_t seed, bool threaded) {
  storage::InMemoryEnv env;
  auto opened = SnapshotStore::Open(&env, "prop");
  ASSERT_TRUE(opened.ok());
  SnapshotStore* store = opened->get();
  constexpr int kPages = 12;
  std::vector<storage::PageId> ids;
  std::vector<uint64_t> current(kPages);
  for (int i = 0; i < kPages; ++i) {
    auto id = store->AllocatePage();
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    current[i] = 1000 + i;
    ASSERT_TRUE(store->WritePage(*id, TaggedPage(current[i])).ok());
  }

  std::mutex mu;  // guards the two maps below
  std::vector<std::vector<uint64_t>> declared;  // tags per snapshot
  std::map<uint64_t, std::string> bytes_by_key;
  int violations = 0;
  int reads = 0;

  auto declare = [&] {
    std::lock_guard<std::mutex> lock(mu);
    auto snap = store->DeclareSnapshot();
    ASSERT_TRUE(snap.ok());
    declared.push_back(current);
    ASSERT_EQ(*snap, declared.size());
  };
  declare();

  auto write_step = [&](Random* rng, uint64_t* next_tag) {
    const int i = static_cast<int>(rng->Uniform(kPages));
    const bool txn = rng->Uniform(3) == 0;
    if (txn) {
      ASSERT_TRUE(store->Begin().ok());
    }
    ASSERT_TRUE(store->WritePage(ids[i], TaggedPage(*next_tag)).ok());
    {
      std::lock_guard<std::mutex> lock(mu);
      current[i] = (*next_tag)++;
    }
    if (txn) {
      ASSERT_TRUE(store->Commit().ok());
    }
    if (rng->Uniform(3) == 0) declare();
  };

  auto read_step = [&](Random* rng) {
    SnapshotId snap;
    std::vector<uint64_t> expect;
    {
      std::lock_guard<std::mutex> lock(mu);
      snap = static_cast<SnapshotId>(1 + rng->Uniform(declared.size()));
      expect = declared[snap - 1];
    }
    auto view = store->OpenSnapshot(snap);
    ASSERT_TRUE(view.ok());
    for (int r = 0; r < 4; ++r) {
      const int i = static_cast<int>(rng->Uniform(kPages));
      uint64_t key = 0;
      if (!(*view)->CacheKey(ids[i], &key)) continue;
      auto pin = (*view)->ReadPagePinned(ids[i]);
      ASSERT_TRUE(pin.ok());
      if (!*pin) continue;  // captured since CacheKey: no keyed bytes
      std::string bytes((*pin)->data, storage::kPageSize);
      std::lock_guard<std::mutex> lock(mu);
      ++reads;
      if ((*pin)->ReadU64(0) != expect[i]) ++violations;
      auto [it, inserted] = bytes_by_key.emplace(key, bytes);
      if (!inserted && it->second != bytes) ++violations;
    }
  };

  constexpr int kSteps = 400;
  if (!threaded) {
    Random rng(seed);
    uint64_t next_tag = 1;
    for (int step = 0; step < kSteps; ++step) {
      if (rng.Uniform(2) == 0) {
        write_step(&rng, &next_tag);
      } else {
        read_step(&rng);
      }
    }
  } else {
    std::thread writer([&] {
      Random rng(seed);
      uint64_t next_tag = 1;
      for (int step = 0; step < kSteps; ++step) write_step(&rng, &next_tag);
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&, t] {
        Random rng(seed * 31 + static_cast<uint64_t>(t) + 1);
        for (int step = 0; step < kSteps; ++step) read_step(&rng);
      });
    }
    writer.join();
    for (std::thread& t : readers) t.join();
  }
  EXPECT_EQ(violations, 0) << "seed " << seed;
  EXPECT_GT(reads, 0);
  // Both key kinds were exercised.
  int shared = 0;
  for (const auto& [key, bytes] : bytes_by_key) {
    if (key & kSharedKeyBit) ++shared;
  }
  EXPECT_GT(shared, 0) << "seed " << seed;
  EXPECT_LT(shared, static_cast<int>(bytes_by_key.size())) << "seed " << seed;
}

TEST(SnapshotContentKeyPropertyTest, SameKeySameBytesSingleThread) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunContentKeyProperty(seed, /*threaded=*/false);
  }
}

TEST(SnapshotContentKeyPropertyTest, SameKeySameBytesWriterAndReaders) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunContentKeyProperty(seed, /*threaded=*/true);
  }
}

}  // namespace
}  // namespace rql::retro
