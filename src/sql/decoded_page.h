#ifndef RQL_SQL_DECODED_PAGE_H_
#define RQL_SQL_DECODED_PAGE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "sql/value.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace rql::sql {

/// One heap page version, fetched, slot-walked and tuple-decoded once: the
/// unit SharedScanCache (shared_scan_cache.h) caches under the page's
/// version key and RowBatch borrows zero-copy. Immutable once published.
/// `pin` keeps the raw record bytes alive even if the underlying BufferPool
/// frame is evicted; the pool merely drops its own reference.
struct DecodedPage {
  storage::PinnedPage pin;  // keeps `records` bytes alive
  storage::PageId next = storage::kInvalidPageId;  // chain successor
  std::vector<uint16_t> slots;            // slot number per live record
  std::vector<std::string_view> records;  // raw bytes, into the pin
  std::vector<Row> rows;                  // decoded form of `records`
};

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
