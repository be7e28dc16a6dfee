#ifndef RQL_SQL_ROW_BATCH_H_
#define RQL_SQL_ROW_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sql/decoded_page.h"

namespace rql::sql {

/// One heap page's worth of decoded rows, handed to the executor as a
/// unit. The batch does not own the row storage: `page` is a DecodedPage
/// whose compact cells the executor reads in place through ValueRef, and
/// holding it keeps that entry (and, through its pin, the raw record
/// bytes its text cells view) alive for as long as the batch is held.
/// Batches built from shared cache entries therefore borrow the decoded
/// values zero-copy — no Row is built for a row the query only filters
/// or aggregates.
///
/// `selection` is the executor-side filter state: the indices into
/// rows [0, page->size()) that survive predicate evaluation, in ascending
/// row order. A freshly produced batch has an empty selection; consumers
/// initialize it to the identity and narrow it with each predicate.
struct RowBatch {
  /// Either a SharedScanCache entry (shared, content-keyed) or a
  /// batch-private decoded page for unkeyed pages; the executor never
  /// needs to distinguish the two.
  std::shared_ptr<const DecodedPage> page;
  std::vector<uint32_t> selection;

  uint32_t size() const { return page->size(); }
};

}  // namespace rql::sql

#endif  // RQL_SQL_ROW_BATCH_H_
