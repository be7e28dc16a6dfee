// Google-benchmark microbenchmarks for the core data structures: row
// codec, heap table, B+-tree, buffer pool, Maplog SPT construction, and
// batch predicate evaluation. These are the unit costs the figure-level
// benchmarks compose.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "retro/snapshot_store.h"
#include "sql/btree.h"
#include "sql/expr.h"
#include "sql/heap_table.h"
#include "sql/value.h"
#include "storage/buffer_pool.h"

namespace rql {
namespace {

using sql::Row;
using sql::Value;

Row SampleRow() {
  return {Value::Integer(123456), Value::Integer(42),
          Value::Text("STANDARD POLISHED TIN"), Value::Real(1234.56),
          Value::Text("1995-03-15")};
}

void BM_EncodeRow(benchmark::State& state) {
  Row row = SampleRow();
  std::string out;
  for (auto _ : state) {
    out.clear();
    sql::EncodeRow(row, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_EncodeRow);

void BM_DecodeRow(benchmark::State& state) {
  std::string encoded = sql::EncodeRow(SampleRow());
  for (auto _ : state) {
    auto row = sql::DecodeRow(encoded);
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_DecodeRow);

void BM_HeapInsert(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto store = retro::SnapshotStore::Open(&env, "bench");
  auto root = sql::HeapTable::Create(store->get());
  sql::HeapTable table(store->get(), *root);
  std::string record = sql::EncodeRow(SampleRow());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Insert(record));
  }
}
BENCHMARK(BM_HeapInsert);

void BM_HeapScan(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto store = retro::SnapshotStore::Open(&env, "bench");
  auto root = sql::HeapTable::Create(store->get());
  sql::HeapTable table(store->get(), *root);
  std::string record = sql::EncodeRow(SampleRow());
  for (int i = 0; i < state.range(0); ++i) {
    (void)table.Insert(record);
  }
  for (auto _ : state) {
    int64_t rows = 0;
    for (auto it = sql::HeapTable::Scan(store->get(), *root); it.Valid();
         it.Next()) {
      ++rows;
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeapScan)->Arg(1000)->Arg(10000);

void BM_BtreeInsert(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto store = retro::SnapshotStore::Open(&env, "bench");
  auto root = sql::BTree::Create(store->get());
  sql::BTree tree(store->get(), *root);
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert({Value::Integer(key++)}, 1));
  }
}
BENCHMARK(BM_BtreeInsert);

void BM_BtreeLookup(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto store = retro::SnapshotStore::Open(&env, "bench");
  auto root = sql::BTree::Create(store->get());
  sql::BTree tree(store->get(), *root);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    (void)tree.Insert({Value::Integer(i)}, static_cast<uint64_t>(i));
  }
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup({Value::Integer(key)}));
    key = (key + 7919) % n;
  }
}
BENCHMARK(BM_BtreeLookup)->Arg(10000);

void BM_BufferPoolHit(benchmark::State& state) {
  storage::BufferPool pool(1024);
  auto loader = [](uint64_t, storage::Page* page) {
    page->Zero();
    return Status::OK();
  };
  for (uint64_t k = 0; k < 512; ++k) (void)pool.Get(k, loader);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Get(key, loader));
    key = (key + 13) % 512;
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_SptBuild(benchmark::State& state) {
  // A history of `snapshots` epochs, each capturing `pages_per_epoch`
  // pages; SPT construction for the oldest snapshot scans all of it.
  storage::InMemoryEnv env;
  auto log = retro::Maplog::Open(&env, "maplog");
  const int snapshots = static_cast<int>(state.range(0));
  const int pages_per_epoch = 64;
  uint64_t offset = 0;
  for (int s = 1; s <= snapshots; ++s) {
    (void)(*log)->AppendSnapshotMark(static_cast<retro::SnapshotId>(s));
    for (int p = 0; p < pages_per_epoch; ++p) {
      (void)(*log)->AppendCapture(static_cast<storage::PageId>(p),
                                  static_cast<retro::SnapshotId>(s),
                                  static_cast<retro::SnapshotId>(s),
                                  offset += storage::kPageSize);
    }
  }
  for (auto _ : state) {
    retro::SnapshotPageTable spt;
    uint64_t resume = 0;
    retro::SptBuildStats stats;
    (void)(*log)->BuildSpt(1, &spt, &resume, &stats);
    benchmark::DoNotOptimize(spt);
  }
  state.SetItemsProcessed(state.iterations() * snapshots * pages_per_epoch);
}
BENCHMARK(BM_SptBuild)->Arg(16)->Arg(128);

// A page-sized batch of orders-like rows: (key INTEGER, status TEXT,
// price REAL, comment TEXT), with a NULL price in every 16th row.
constexpr uint32_t kBatchRows = 128;

std::vector<Row> FilterBatchRows() {
  static const char* const kStatus[] = {"O", "F", "P"};
  static const char* const kComment[] = {"quickly final", "slyly pending",
                                         "carefully even", "blithely bold"};
  std::vector<Row> rows;
  for (uint32_t i = 0; i < kBatchRows; ++i) {
    rows.push_back({Value::Integer(i),
                    Value::Text(kStatus[(i * 7) % 3]),
                    i % 16 == 0 ? Value::Null() : Value::Real(i * 1.25),
                    Value::Text(kComment[i % 4])});
  }
  return rows;
}

sql::ExprPtr Col(int index) {
  sql::ExprPtr e = sql::MakeColumnRef("", "c" + std::to_string(index));
  e->column_index = index;
  return e;
}

sql::ExprPtr Cmp(sql::BinOp op, int column, Value constant) {
  return sql::MakeBinary(op, Col(column), sql::MakeLiteral(std::move(constant)));
}

// Narrows a fresh identity selection over the batch per iteration;
// per_row is the time per input row.
void RunFilter(benchmark::State& state, const sql::Expr& pred) {
  std::vector<Row> rows = FilterBatchRows();
  std::vector<uint32_t> identity(kBatchRows);
  for (uint32_t i = 0; i < kBatchRows; ++i) identity[i] = i;
  std::vector<uint32_t> sel;
  for (auto _ : state) {
    sel = identity;
    Status st = sql::FilterBatch(pred, rows.data(), &sel);
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(sel.data());
  }
  state.counters["per_row"] = benchmark::Counter(
      kBatchRows, benchmark::Counter::kIsIterationInvariantRate |
                      benchmark::Counter::kInvert);
}

void BM_BatchFilterTextEq(benchmark::State& state) {
  RunFilter(state, *Cmp(sql::BinOp::kEq, 1, Value::Text("O")));
}
BENCHMARK(BM_BatchFilterTextEq);

void BM_BatchFilterIntRange(benchmark::State& state) {
  RunFilter(state, *sql::MakeBinary(
                       sql::BinOp::kAnd, Cmp(sql::BinOp::kGe, 0, Value::Integer(20)),
                       Cmp(sql::BinOp::kLt, 0, Value::Integer(100))));
}
BENCHMARK(BM_BatchFilterIntRange);

void BM_BatchFilterAnd(benchmark::State& state) {
  RunFilter(state, *sql::MakeBinary(
                       sql::BinOp::kAnd, Cmp(sql::BinOp::kEq, 1, Value::Text("O")),
                       Cmp(sql::BinOp::kGt, 2, Value::Real(40.0))));
}
BENCHMARK(BM_BatchFilterAnd);

void BM_BatchFilterOrNot(benchmark::State& state) {
  RunFilter(state,
            *sql::MakeBinary(
                sql::BinOp::kOr, Cmp(sql::BinOp::kEq, 1, Value::Text("F")),
                sql::MakeUnary(sql::UnOp::kNot,
                               Cmp(sql::BinOp::kLe, 2, Value::Real(80.0)))));
}
BENCHMARK(BM_BatchFilterOrNot);

void BM_BatchFilterLike(benchmark::State& state) {
  RunFilter(state, *sql::MakeBinary(sql::BinOp::kLike, Col(3),
                                    sql::MakeLiteral(Value::Text("%ly%en%"))));
}
BENCHMARK(BM_BatchFilterLike);

}  // namespace
}  // namespace rql

BENCHMARK_MAIN();
