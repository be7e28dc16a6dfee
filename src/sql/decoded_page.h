#ifndef RQL_SQL_DECODED_PAGE_H_
#define RQL_SQL_DECODED_PAGE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/value.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace rql::sql {

/// One heap page version, fetched, slot-walked and tuple-decoded once: the
/// unit SharedScanCache (shared_scan_cache.h) caches under the page's
/// version key and RowBatch borrows zero-copy. Immutable once published.
///
/// Compact layout: every decoded value is a fixed-size cell — a type tag
/// plus 8 bytes, held in two parallel arrays — and text stays in the
/// frame: its 8 bytes are an (offset, length) pair into `base`. A cell is
/// read through ValueRef (cell()); a Row is materialized only on demand
/// (MaterializeRow). That is 9 bytes per value beside the 4 KiB frame,
/// which keeps a cached TPC-H `orders` page within two pages.
///
/// `pin` keeps the frame alive even if the underlying BufferPool frame is
/// evicted; the pool merely drops its own reference. A page decoded from
/// bytes something else owns (an unkeyed page read for one batch,
/// DecodeRows) leaves `pin` empty and is held through an aliasing
/// shared_ptr to that owner.
struct DecodedPage {
  storage::PinnedPage pin;  // keeps the bytes at `base` alive
  const char* base = nullptr;  // the frame the text cells point into
  storage::PageId next = storage::kInvalidPageId;  // chain successor
  std::vector<uint16_t> slots;  // slot number per decoded row
  /// Row r's cells are [row_begin[r], row_begin[r + 1]); size() + 1
  /// entries. Rows may differ in width (a corrupt or foreign record); the
  /// executor checks widths against the schema.
  std::vector<uint32_t> row_begin{0};
  std::vector<ValueType> tags;  // per cell
  /// Per cell: the int64, the double's bits, or for text
  /// (offset from `base`) << 32 | length.
  std::vector<uint64_t> cells;

  uint32_t size() const { return static_cast<uint32_t>(row_begin.size() - 1); }
  uint32_t width(uint32_t row) const {
    return row_begin[row + 1] - row_begin[row];
  }

  /// Column `col` of row `row`; requires col < width(row).
  ValueRef cell(uint32_t row, size_t col) const {
    return CellAt(row_begin[row] + static_cast<uint32_t>(col));
  }
  ValueRef CellAt(uint32_t i) const {
    const uint64_t bits = cells[i];
    switch (tags[i]) {
      case ValueType::kInteger:
        return ValueRef::Integer(static_cast<int64_t>(bits));
      case ValueType::kReal: {
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return ValueRef::Real(d);
      }
      case ValueType::kText:
        return ValueRef::Text(std::string_view(
            base + (bits >> 32), static_cast<uint32_t>(bits)));
      case ValueType::kNull:
        break;
    }
    return ValueRef();
  }

  /// Overwrites `*out` with row `row`'s values, reusing its storage.
  void MaterializeRow(uint32_t row, Row* out) const;

  /// Decodes one record (EncodeRow format) lying within the bytes at
  /// `base` and appends it as row size() for slot `slot`. Fails, leaving
  /// the page unchanged, with DecodeRow's error on a malformed record.
  Status AppendRecord(std::string_view record, uint16_t slot);

  /// Sizes the arrays exactly: cached entries live long, and doubling
  /// growth would leave part of each array unused (and charged to the
  /// cache budget).
  void ShrinkToFit();
};

/// Encodes `rows` into one owned buffer and decodes them into a
/// DecodedPage over it — the form tests and benchmarks feed the batch
/// evaluator. Not limited to one heap page's worth of rows.
std::shared_ptr<const DecodedPage> DecodeRows(const std::vector<Row>& rows);

/// Per-execution scan-cache counters, accumulated by HeapTable iterators
/// into the executor's ExecStats. Unlike the cache-global statistics,
/// these are exact per execution even when several runs or parallel
/// workers share one cache instance, so the RQL engine attributes hits
/// and misses to the iteration that actually performed them.
struct ScanCacheCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  /// Hits served by blocking on another thread's in-flight decode of the
  /// same version (single-flight coalescing).
  int64_t coalesced = 0;
};

}  // namespace rql::sql

#endif  // RQL_SQL_DECODED_PAGE_H_
