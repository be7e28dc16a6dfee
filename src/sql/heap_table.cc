#include "sql/heap_table.h"

#include <cstring>
#include <vector>

#include "sql/shared_scan_cache.h"

namespace rql::sql {

namespace {

using storage::kInvalidPageId;
using storage::kPageSize;
using storage::Page;
using storage::PageId;

// Page header layout.
constexpr uint32_t kNextOff = 0;
constexpr uint32_t kPrevOff = 4;
constexpr uint32_t kSlotCountOff = 8;
constexpr uint32_t kDataEndOff = 10;
constexpr uint32_t kLastPageOff = 12;  // root page only
constexpr uint32_t kDataStart = 16;

// Slot directory grows from the page end; 4 bytes per slot.
constexpr uint32_t kSlotBytes = 4;
constexpr uint16_t kDeadLen = 0xFFFF;

uint32_t SlotPos(int slot) {
  return kPageSize - (static_cast<uint32_t>(slot) + 1) * kSlotBytes;
}

void ReadSlot(const Page& page, int slot, uint16_t* offset, uint16_t* len) {
  *offset = page.ReadU16(SlotPos(slot));
  *len = page.ReadU16(SlotPos(slot) + 2);
}

void WriteSlot(Page* page, int slot, uint16_t offset, uint16_t len) {
  page->WriteU16(SlotPos(slot), offset);
  page->WriteU16(SlotPos(slot) + 2, len);
}

void InitPage(Page* page) {
  page->Zero();
  page->WriteU16(kDataEndOff, kDataStart);
}

// Rewrites the record area dropping dead bytes; slot numbers (and thus
// rids) are preserved.
void CompactPage(Page* page) {
  uint16_t slot_count = page->ReadU16(kSlotCountOff);
  struct Live {
    int slot;
    std::string data;
  };
  std::vector<Live> live;
  for (int s = 0; s < slot_count; ++s) {
    uint16_t off, len;
    ReadSlot(*page, s, &off, &len);
    if (len == kDeadLen) continue;
    live.push_back({s, std::string(page->data + off, len)});
  }
  uint16_t pos = kDataStart;
  for (const Live& l : live) {
    std::memcpy(page->data + pos, l.data.data(), l.data.size());
    WriteSlot(page, l.slot, pos, static_cast<uint16_t>(l.data.size()));
    pos = static_cast<uint16_t>(pos + l.data.size());
  }
  page->WriteU16(kDataEndOff, pos);
}

// Decodes every live record of `page` into `out` (slots and cells; text
// cells point into the buffer backing `page`). Does not touch out->pin;
// the caller anchors the buffer's lifetime.
Status DecodePageRecords(const Page& page, DecodedPage* out) {
  out->base = page.data;
  out->next = page.ReadU32(kNextOff);
  uint16_t slot_count = page.ReadU16(kSlotCountOff);
  out->slots.reserve(slot_count);
  out->row_begin.reserve(slot_count + 1u);
  for (int s = 0; s < slot_count; ++s) {
    uint16_t off, len;
    ReadSlot(page, s, &off, &len);
    if (len == kDeadLen) continue;
    RQL_RETURN_IF_ERROR(out->AppendRecord(
        std::string_view(page.data + off, len), static_cast<uint16_t>(s)));
  }
  out->ShrinkToFit();
  return Status::OK();
}

// An unkeyed page decoded for a batch scan: the frame must live as
// long as the DecodedPage views into it, so both share one allocation
// and batches hold the entry through an aliasing shared_ptr.
struct OwnedDecodedPage {
  Page frame;
  DecodedPage decoded;
};

int LiveCount(const Page& page) {
  uint16_t slot_count = page.ReadU16(kSlotCountOff);
  int live = 0;
  for (int s = 0; s < slot_count; ++s) {
    uint16_t off, len;
    ReadSlot(page, s, &off, &len);
    if (len != kDeadLen) ++live;
  }
  return live;
}

}  // namespace

Result<PageId> HeapTable::Create(storage::PageWriter* writer) {
  RQL_ASSIGN_OR_RETURN(PageId root, writer->AllocatePage());
  Page page;
  InitPage(&page);
  page.WriteU32(kLastPageOff, root);
  RQL_RETURN_IF_ERROR(writer->WritePage(root, page));
  return root;
}

Status HeapTable::InsertIntoPage(PageId id, Page* page,
                                 std::string_view record, uint16_t* slot) {
  uint16_t slot_count = page->ReadU16(kSlotCountOff);
  uint16_t data_end = page->ReadU16(kDataEndOff);

  // Prefer reusing a dead slot so the directory does not grow.
  int target = -1;
  for (int s = 0; s < slot_count; ++s) {
    uint16_t off, len;
    ReadSlot(*page, s, &off, &len);
    if (len == kDeadLen) {
      target = s;
      break;
    }
  }
  bool new_slot = target < 0;
  uint32_t dir_bytes =
      (static_cast<uint32_t>(slot_count) + (new_slot ? 1 : 0)) * kSlotBytes;
  if (kDataStart + dir_bytes > kPageSize) {
    return Status::OutOfRange("page slot directory full");
  }
  uint32_t capacity = kPageSize - dir_bytes;

  if (data_end + record.size() > capacity) {
    // Try reclaiming dead record bytes.
    CompactPage(page);
    data_end = page->ReadU16(kDataEndOff);
    if (data_end + record.size() > capacity) {
      return Status::OutOfRange("page full");
    }
  }

  std::memcpy(page->data + data_end, record.data(), record.size());
  if (new_slot) {
    target = slot_count;
    page->WriteU16(kSlotCountOff, static_cast<uint16_t>(slot_count + 1));
  }
  WriteSlot(page, target, data_end, static_cast<uint16_t>(record.size()));
  page->WriteU16(kDataEndOff,
                 static_cast<uint16_t>(data_end + record.size()));
  (void)id;
  *slot = static_cast<uint16_t>(target);
  return Status::OK();
}

Result<Rid> HeapTable::Insert(std::string_view record) {
  if (record.size() > kPageSize - kDataStart - 2 * kSlotBytes) {
    return Status::InvalidArgument("record too large for one page");
  }
  Page root_page;
  RQL_RETURN_IF_ERROR(writer_->ReadPage(root_, &root_page));
  PageId tail = root_page.ReadU32(kLastPageOff);
  if (tail == kInvalidPageId) tail = root_;

  Page tail_page;
  if (tail == root_) {
    tail_page = root_page;
  } else {
    RQL_RETURN_IF_ERROR(writer_->ReadPage(tail, &tail_page));
  }

  uint16_t slot = 0;
  Status s = InsertIntoPage(tail, &tail_page, record, &slot);
  if (s.ok()) {
    RQL_RETURN_IF_ERROR(writer_->WritePage(tail, tail_page));
    return MakeRid(tail, slot);
  }
  if (s.code() != StatusCode::kOutOfRange) return s;

  // Tail is full: chain a fresh page.
  RQL_ASSIGN_OR_RETURN(PageId fresh, writer_->AllocatePage());
  Page fresh_page;
  InitPage(&fresh_page);
  fresh_page.WriteU32(kPrevOff, tail);
  RQL_RETURN_IF_ERROR(InsertIntoPage(fresh, &fresh_page, record, &slot));
  RQL_RETURN_IF_ERROR(writer_->WritePage(fresh, fresh_page));

  tail_page.WriteU32(kNextOff, fresh);
  RQL_RETURN_IF_ERROR(writer_->WritePage(tail, tail_page));
  if (tail == root_) root_page = tail_page;  // keep root buffer current

  root_page.WriteU32(kLastPageOff, fresh);
  RQL_RETURN_IF_ERROR(writer_->WritePage(root_, root_page));
  return MakeRid(fresh, slot);
}

Status HeapTable::Delete(Rid rid) {
  PageId id = RidPage(rid);
  uint16_t slot = RidSlot(rid);
  Page page;
  RQL_RETURN_IF_ERROR(writer_->ReadPage(id, &page));
  uint16_t slot_count = page.ReadU16(kSlotCountOff);
  if (slot >= slot_count) return Status::NotFound("no such slot");
  uint16_t off, len;
  ReadSlot(page, slot, &off, &len);
  if (len == kDeadLen) return Status::NotFound("record already deleted");
  WriteSlot(&page, slot, 0, kDeadLen);

  if (LiveCount(page) > 0 || id == root_) {
    if (id == root_ && LiveCount(page) == 0 &&
        page.ReadU32(kNextOff) == kInvalidPageId) {
      // Empty single-page table: reset the root so slot numbers restart.
      PageId last = page.ReadU32(kLastPageOff);
      InitPage(&page);
      page.WriteU32(kLastPageOff, last);
    }
    return writer_->WritePage(id, page);
  }

  // The page emptied: unlink it from the chain and recycle it.
  PageId next = page.ReadU32(kNextOff);
  PageId prev = page.ReadU32(kPrevOff);
  {
    Page prev_page;
    RQL_RETURN_IF_ERROR(writer_->ReadPage(prev, &prev_page));
    prev_page.WriteU32(kNextOff, next);
    RQL_RETURN_IF_ERROR(writer_->WritePage(prev, prev_page));
  }
  if (next != kInvalidPageId) {
    Page next_page;
    RQL_RETURN_IF_ERROR(writer_->ReadPage(next, &next_page));
    next_page.WriteU32(kPrevOff, prev);
    RQL_RETURN_IF_ERROR(writer_->WritePage(next, next_page));
  } else {
    Page root_page;
    RQL_RETURN_IF_ERROR(writer_->ReadPage(root_, &root_page));
    root_page.WriteU32(kLastPageOff, prev);
    RQL_RETURN_IF_ERROR(writer_->WritePage(root_, root_page));
  }
  return writer_->FreePage(id);
}

Result<Rid> HeapTable::Update(Rid rid, std::string_view record) {
  // Try replacing in place when the new record is no larger.
  PageId id = RidPage(rid);
  uint16_t slot = RidSlot(rid);
  Page page;
  RQL_RETURN_IF_ERROR(writer_->ReadPage(id, &page));
  uint16_t slot_count = page.ReadU16(kSlotCountOff);
  if (slot >= slot_count) return Status::NotFound("no such slot");
  uint16_t off, len;
  ReadSlot(page, slot, &off, &len);
  if (len == kDeadLen) return Status::NotFound("record deleted");
  if (record.size() <= len) {
    std::memcpy(page.data + off, record.data(), record.size());
    WriteSlot(&page, slot, off, static_cast<uint16_t>(record.size()));
    RQL_RETURN_IF_ERROR(writer_->WritePage(id, page));
    return rid;
  }
  RQL_RETURN_IF_ERROR(Delete(rid));
  return Insert(record);
}

Status HeapTable::Drop() {
  PageId id = root_;
  // Read the chain first, then free: FreePage overwrites the next pointer.
  std::vector<PageId> pages;
  Page page;
  while (id != kInvalidPageId) {
    pages.push_back(id);
    RQL_RETURN_IF_ERROR(writer_->ReadPage(id, &page));
    id = page.ReadU32(kNextOff);
  }
  for (PageId p : pages) {
    RQL_RETURN_IF_ERROR(writer_->FreePage(p));
  }
  return Status::OK();
}

HeapTable::Iterator::Iterator(storage::PageReader* reader, PageId root,
                              SharedScanCache* cache,
                              ScanCacheCounters* counters)
    : reader_(reader), cache_(cache), counters_(counters) {
  LoadPage(root);
  if (status_.ok()) AdvanceToLiveSlot();
}

namespace {

// Decodes the pinned page into a cache entry; nullptr when any
// record fails to decode (the row scan's plain path surfaces the error).
std::shared_ptr<const DecodedPage> DecodePinnedPage(
    const Page& page, storage::PinnedPage pin) {
  auto decoded = std::make_shared<DecodedPage>();
  if (!DecodePageRecords(page, decoded.get()).ok()) return nullptr;
  decoded->pin = std::move(pin);
  return decoded;
}

}  // namespace

void HeapTable::Iterator::LoadPage(PageId id) {
  page_id_ = id;
  slot_ = -1;
  cached_.reset();
  if (id == kInvalidPageId) {
    valid_ = false;
    slot_count_ = 0;
    return;
  }
  uint64_t key = 0;
  if (cache_ != nullptr && reader_->CacheKey(id, &key)) {
    SharedScanCache::AcquireResult acq = cache_->Acquire(key);
    if (acq.page != nullptr) {
      cached_ = std::move(acq.page);
      if (counters_ != nullptr) {
        ++counters_->hits;
        if (acq.coalesced) ++counters_->coalesced;
      }
      return;
    }
    if (counters_ != nullptr) ++counters_->misses;
    if (acq.claimed) {
      // This caller owns the decode: every exit below must either publish
      // (Insert) or release the claim (AbandonDecode) so single-flight
      // waiters never hang on an abandoned key.
      Result<storage::PinnedPage> pinned = reader_->ReadPagePinned(id);
      if (!pinned.ok()) {
        cache_->AbandonDecode(key);
        status_ = pinned.status();
        valid_ = false;
        return;
      }
      if (*pinned) {
        const Page& frame = **pinned;  // outlives the move: the entry pins it
        auto decoded = DecodePinnedPage(frame, std::move(*pinned));
        if (decoded != nullptr) {
          cached_ = cache_->Insert(key, std::move(decoded));
          return;
        }
      }
      cache_->AbandonDecode(key);
    }
    // No claim (a waited-on decode was abandoned), no pin, or undecodable
    // records: fall through to the plain path, which reports decode errors
    // through the caller's own DecodeRow.
  }
  status_ = reader_->ReadPage(id, &page_);
  if (!status_.ok()) {
    valid_ = false;
    return;
  }
  slot_count_ = page_.ReadU16(kSlotCountOff);
}

void HeapTable::Iterator::AdvanceToLiveSlot() {
  while (page_id_ != kInvalidPageId) {
    if (cached_ != nullptr) {
      if (++slot_ < static_cast<int>(cached_->size())) {
        // Cache entries pin the frame they were decoded from.
        const Page& frame = *cached_->pin;
        uint16_t off, len;
        ReadSlot(frame, cached_->slots[slot_], &off, &len);
        record_ = std::string_view(frame.data + off, len);
        valid_ = true;
        return;
      }
      LoadPage(cached_->next);
    } else {
      while (++slot_ < slot_count_) {
        uint16_t off, len;
        ReadSlot(page_, slot_, &off, &len);
        if (len != kDeadLen) {
          record_ = std::string_view(page_.data + off, len);
          valid_ = true;
          return;
        }
      }
      LoadPage(page_.ReadU32(kNextOff));
    }
    if (!status_.ok()) return;
  }
  valid_ = false;
}

void HeapTable::Iterator::Next() {
  if (!valid_) return;
  valid_ = false;
  AdvanceToLiveSlot();
}

HeapTable::Iterator HeapTable::Scan(storage::PageReader* reader, PageId root,
                                    SharedScanCache* cache,
                                    ScanCacheCounters* counters) {
  return Iterator(reader, root, cache, counters);
}

HeapTable::BatchIterator::BatchIterator(storage::PageReader* reader,
                                        PageId root, SharedScanCache* cache,
                                        ScanCacheCounters* counters)
    : reader_(reader), cache_(cache), counters_(counters) {
  LoadBatch(root);
}

void HeapTable::BatchIterator::LoadBatch(PageId id) {
  while (id != kInvalidPageId) {
    std::shared_ptr<const DecodedPage> entry;
    uint64_t key = 0;
    if (cache_ != nullptr && reader_->CacheKey(id, &key)) {
      SharedScanCache::AcquireResult acq = cache_->Acquire(key);
      if (acq.page != nullptr) {
        entry = std::move(acq.page);
        if (counters_ != nullptr) {
          ++counters_->hits;
          if (acq.coalesced) ++counters_->coalesced;
        }
      } else {
        if (counters_ != nullptr) ++counters_->misses;
        if (acq.claimed) {
          // Claim held: publish or abandon on every exit (see LoadPage).
          Result<storage::PinnedPage> pinned = reader_->ReadPagePinned(id);
          if (!pinned.ok()) {
            cache_->AbandonDecode(key);
            status_ = pinned.status();
            valid_ = false;
            return;
          }
          if (*pinned) {
            const Page& frame = **pinned;
            auto decoded = std::make_shared<DecodedPage>();
            status_ = DecodePageRecords(frame, decoded.get());
            if (!status_.ok()) {
              cache_->AbandonDecode(key);
              valid_ = false;
              return;
            }
            decoded->pin = std::move(*pinned);
            entry = cache_->Insert(key, std::move(decoded));
          } else {
            // No pin: decode from a plain read below, like the row scan.
            cache_->AbandonDecode(key);
          }
        }
      }
    }
    if (entry == nullptr) {
      auto owned = std::make_shared<OwnedDecodedPage>();
      status_ = reader_->ReadPage(id, &owned->frame);
      if (!status_.ok()) {
        valid_ = false;
        return;
      }
      status_ = DecodePageRecords(owned->frame, &owned->decoded);
      if (!status_.ok()) {
        valid_ = false;
        return;
      }
      entry = std::shared_ptr<const DecodedPage>(
          owned, &owned->decoded);
    }
    PageId next = entry->next;
    if (entry->size() > 0) {
      batch_.page = std::move(entry);
      batch_.selection.clear();
      next_ = next;
      valid_ = true;
      return;
    }
    id = next;  // all-dead page: skip it
  }
  valid_ = false;
}

void HeapTable::BatchIterator::Next() {
  if (!valid_) return;
  valid_ = false;
  LoadBatch(next_);
}

HeapTable::BatchIterator HeapTable::ScanBatches(storage::PageReader* reader,
                                                PageId root,
                                                SharedScanCache* cache,
                                                ScanCacheCounters* counters) {
  return BatchIterator(reader, root, cache, counters);
}

Result<std::string> HeapTable::Get(storage::PageReader* reader, Rid rid) {
  Page page;
  RQL_RETURN_IF_ERROR(reader->ReadPage(RidPage(rid), &page));
  uint16_t slot_count = page.ReadU16(kSlotCountOff);
  uint16_t slot = RidSlot(rid);
  if (slot >= slot_count) return Status::NotFound("no such slot");
  uint16_t off, len;
  ReadSlot(page, slot, &off, &len);
  if (len == kDeadLen) return Status::NotFound("record deleted");
  return std::string(page.data + off, len);
}

Result<uint64_t> HeapTable::CountPages(storage::PageReader* reader,
                                       PageId root) {
  uint64_t count = 0;
  Page page;
  PageId id = root;
  while (id != kInvalidPageId) {
    RQL_RETURN_IF_ERROR(reader->ReadPage(id, &page));
    ++count;
    id = page.ReadU32(kNextOff);
  }
  return count;
}

}  // namespace rql::sql
