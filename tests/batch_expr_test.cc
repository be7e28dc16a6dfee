// Differential tests for the vectorized expression evaluator: seeded
// random predicate trees over a table with NULL, integer, real, text and
// mixed-type columns. FilterBatch's selection and error Status must equal
// the row path (EvalExpr + ValueIsTrue per row), EvalBatch's values must
// equal EvalExpr's, and GROUP BY queries run through the batch executor
// must equal the row-at-a-time executor in values and first-appearance
// group order. Edge values (NULL, INT64 min/max, -0.0 beside 0.0, empty
// text, text ending at a frame's last byte, rows narrower than the
// expression) are read from compact DecodedPage cells exactly as the row
// path reads materialized Values.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "sql/ast.h"
#include "sql/database.h"
#include "sql/expr.h"
#include "sql/shared_scan_cache.h"
#include "storage/env.h"
#include "storage/page.h"

namespace rql::sql {
namespace {

// Columns: i INTEGER, r REAL, s TEXT (all with NULLs), m (any type),
// n INTEGER (never NULL).
const char* const kColumns[] = {"i", "r", "s", "m", "n"};
constexpr int kNumColumns = 5;
const char* const kTexts[] = {"",  "a",   "ab", "b",   "O",
                              "F", "a%b", "abc", "1", "a_"};
const char* const kPatterns[] = {"a%", "%b", "_", "a_", "%", "O",
                                 "%a%b", "", "a\\_"};

Value RandomInteger(Random* rng) {
  return Value::Integer(static_cast<int64_t>(rng->Uniform(11)) - 5);
}
// Quarters are exact in binary and in "%.2f", so SQL text round-trips.
Value RandomReal(Random* rng) {
  return Value::Real((static_cast<double>(rng->Uniform(25)) - 12) / 4.0);
}
Value RandomText(Random* rng) {
  return Value::Text(kTexts[rng->Uniform(10)]);
}
Value RandomAny(Random* rng) {
  switch (rng->Uniform(4)) {
    case 0: return Value::Null();
    case 1: return RandomInteger(rng);
    case 2: return RandomReal(rng);
    default: return RandomText(rng);
  }
}

std::vector<Row> MakeTable(Random* rng, int rows) {
  std::vector<Row> out;
  for (int k = 0; k < rows; ++k) {
    auto maybe_null = [&](Value v) {
      return rng->Uniform(5) == 0 ? Value::Null() : std::move(v);
    };
    out.push_back({maybe_null(RandomInteger(rng)), maybe_null(RandomReal(rng)),
                   maybe_null(RandomText(rng)), RandomAny(rng),
                   Value::Integer(static_cast<int64_t>(rng->Uniform(10)))});
  }
  return out;
}

/// Random predicate trees within EvalBatchSupported. Records which error
/// messages a tree can raise: arithmetic on text, negation of text, and
/// the unbound parameter ?9.
class TreeGen {
 public:
  TreeGen(Random* rng, bool allow_params)
      : rng_(rng), allow_params_(allow_params) {}

  bool can_fail_arith = false;
  bool can_fail_negate = false;
  bool can_fail_unbound = false;

  /// The batch path fails exactly when the row path does; which error it
  /// reports can differ only when the tree can raise two kinds.
  bool OneErrorKind() const {
    return can_fail_arith + can_fail_negate + can_fail_unbound <= 1;
  }

  ExprPtr Pred(int depth) {
    switch (depth <= 0 ? rng_->Uniform(2) : rng_->Uniform(9)) {
      case 0: case 1: case 2: {
        static const BinOp kOps[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                                     BinOp::kLe, BinOp::kGt, BinOp::kGe};
        BinOp op = kOps[rng_->Uniform(6)];
        ExprPtr lhs = Operand(depth - 1);
        ExprPtr rhs = Operand(depth - 1);
        if (rng_->Uniform(2) == 0) std::swap(lhs, rhs);
        return MakeBinary(op, std::move(lhs), std::move(rhs));
      }
      case 3: {
        ExprPtr rhs = rng_->Uniform(4) == 0
                          ? Operand(depth - 1)
                          : MakeLiteral(Value::Text(kPatterns[rng_->Uniform(9)]));
        return MakeBinary(BinOp::kLike, Operand(depth - 1), std::move(rhs));
      }
      case 4:
        return MakeBinary(BinOp::kAnd, Pred(depth - 1), Pred(depth - 1));
      case 5:
        return MakeBinary(BinOp::kOr, Pred(depth - 1), Pred(depth - 1));
      case 6:
        return MakeUnary(UnOp::kNot, Pred(depth - 1));
      case 7:
        return MakeUnary(rng_->Uniform(2) == 0 ? UnOp::kIsNull
                                               : UnOp::kIsNotNull,
                         rng_->Uniform(2) == 0 ? Operand(depth - 1)
                                               : Pred(depth - 1));
      default:
        return Operand(depth - 1);  // a datum used as a predicate
    }
  }

  ExprPtr Operand(int depth) {
    switch (depth <= 0 ? rng_->Uniform(4) : rng_->Uniform(8)) {
      case 0: case 1:
        return Column(static_cast<int>(rng_->Uniform(kNumColumns)));
      case 2:
        return MakeLiteral(RandomAny(rng_));
      case 3:
        if (allow_params_) return Parameter();
        return Column(static_cast<int>(rng_->Uniform(kNumColumns)));
      case 4: case 5: {
        static const BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul,
                                     BinOp::kDiv, BinOp::kMod};
        can_fail_arith = true;  // text operands; division by zero is NULL
        return MakeBinary(kOps[rng_->Uniform(5)], Operand(depth - 1),
                          Operand(depth - 1));
      }
      case 6: {
        // Over numeric columns mostly; s and m hold text, which fails.
        static const int kColumnsToNegate[] = {0, 1, 4, 0, 1, 4, 2, 3};
        int column = kColumnsToNegate[rng_->Uniform(8)];
        if (column == 2 || column == 3) can_fail_negate = true;
        return MakeUnary(UnOp::kNeg, rng_->Uniform(3) == 0
                                         ? MakeLiteral(RandomInteger(rng_))
                                         : Column(column));
      }
      default:
        return Pred(depth - 1);  // a truth value used as a datum
    }
  }

 private:
  ExprPtr Column(int index) {
    ExprPtr e = MakeColumnRef("", kColumns[index]);
    e->column_index = index;
    return e;
  }

  ExprPtr Parameter() {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kParameter;
    if (rng_->Uniform(4) == 0) {
      e->param_index = 9;
      can_fail_unbound = true;
    } else {
      e->param_index = 1 + static_cast<int>(rng_->Uniform(3));
      e->literal = RandomAny(rng_);
      e->param_bound = true;
    }
    return e;
  }

  Random* rng_;
  bool allow_params_;
};

/// SQL text for a tree (parameters show as ?n{value}).
std::string ToSql(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return e.name;
    case ExprKind::kParameter:  // diagnostics only; not valid SQL
      return "?" + std::to_string(e.param_index) +
             (e.param_bound ? "{" + e.literal.ToString() + "}" : "");
    case ExprKind::kLiteral:
      switch (e.literal.type()) {
        case ValueType::kNull: return "NULL";
        case ValueType::kInteger:
          return "(" + std::to_string(e.literal.integer()) + ")";
        case ValueType::kReal: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "(%.2f)", e.literal.real());
          return buf;
        }
        case ValueType::kText: return "'" + e.literal.text() + "'";
      }
      break;
    case ExprKind::kUnary:
      switch (e.un_op) {
        case UnOp::kNot: return "(NOT " + ToSql(*e.args[0]) + ")";
        case UnOp::kNeg: return "(-" + ToSql(*e.args[0]) + ")";
        case UnOp::kIsNull: return "(" + ToSql(*e.args[0]) + " IS NULL)";
        case UnOp::kIsNotNull:
          return "(" + ToSql(*e.args[0]) + " IS NOT NULL)";
      }
      break;
    case ExprKind::kBinary: {
      static const char* const kSql[] = {"=", "<>", "<", "<=", ">", ">=",
                                         "+", "-",  "*", "/",  "%", "AND",
                                         "OR", "LIKE"};
      return "(" + ToSql(*e.args[0]) + " " +
             kSql[static_cast<int>(e.bin_op)] + " " + ToSql(*e.args[1]) +
             ")";
    }
    default:
      break;
  }
  ADD_FAILURE() << "unexpected node in ToSql";
  return "";
}

struct RowPathResult {
  Status status;
  std::vector<uint32_t> kept;
};

RowPathResult FilterRowPath(const Expr& pred, const std::vector<Row>& rows,
                            const std::vector<uint32_t>& sel) {
  RowPathResult out;
  for (uint32_t idx : sel) {
    EvalContext ctx;
    ctx.row = &rows[idx];
    Result<Value> v = EvalExpr(pred, ctx);
    if (!v.ok()) {
      out.status = v.status();
      return out;
    }
    if (ValueIsTrue(*v)) out.kept.push_back(idx);
  }
  return out;
}

std::vector<std::vector<uint32_t>> Selections(Random* rng, size_t rows) {
  std::vector<uint32_t> all, half, one;
  for (uint32_t i = 0; i < rows; ++i) {
    all.push_back(i);
    if (rng->Uniform(2) == 0) half.push_back(i);
  }
  one.push_back(static_cast<uint32_t>(rng->Uniform(rows)));
  return {all, half, one};
}

class BatchExprDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchExprDifferentialTest, FilterAndValuesMatchRowPath) {
  Random rng(GetParam());
  const std::vector<Row> rows = MakeTable(&rng, 257);
  const std::shared_ptr<const DecodedPage> page = DecodeRows(rows);
  int errors = 0, kept_some = 0;
  for (int t = 0; t < 1500; ++t) {
    TreeGen gen(&rng, /*allow_params=*/true);
    ExprPtr pred = gen.Pred(1 + static_cast<int>(rng.Uniform(4)));
    ASSERT_TRUE(EvalBatchSupported(*pred));
    // Error messages are compared when the tree can raise only one kind.
    const bool one_message = gen.OneErrorKind();
    for (const std::vector<uint32_t>& sel : Selections(&rng, rows.size())) {
      SCOPED_TRACE(ToSql(*pred) + ", selection of " +
                   std::to_string(sel.size()));
      RowPathResult expected = FilterRowPath(*pred, rows, sel);
      std::vector<uint32_t> got = sel;
      Status st = FilterBatch(*pred, *page, &got);
      ASSERT_EQ(st.ok(), expected.status.ok())
          << st.ToString() << " vs " << expected.status.ToString();
      if (st.ok()) {
        ASSERT_EQ(got, expected.kept);
        if (!got.empty()) ++kept_some;
      } else {
        ++errors;
        if (one_message) {
          ASSERT_EQ(st.ToString(), expected.status.ToString());
        }
      }

      BatchValues values;
      Status vst = EvalBatch(*pred, *page, sel.data(), sel.size(), &values);
      ASSERT_EQ(vst.ok(), expected.status.ok()) << vst.ToString();
      if (!vst.ok()) continue;
      ASSERT_EQ(values.size(), sel.size());
      for (size_t i = 0; i < sel.size(); ++i) {
        EvalContext ctx;
        ctx.row = &rows[sel[i]];
        Result<Value> v = EvalExpr(*pred, ctx);
        ASSERT_TRUE(v.ok());
        ASSERT_EQ(EncodeRow({values.at(i).ToValue()}), EncodeRow({*v}))
            << "position " << i;
      }
    }
  }
  // The generator reaches both outcomes often enough to mean something.
  EXPECT_GT(errors, 100);
  EXPECT_GT(kept_some, 500);
}

TEST_P(BatchExprDifferentialTest, GroupByMatchesRowPath) {
  Random rng(GetParam());
  storage::InMemoryEnv env;
  auto db = Database::Open(&env, "data");
  ASSERT_TRUE(db.ok());
  Database* data = db->get();
  ASSERT_TRUE(
      data->Exec("CREATE TABLE t (i INTEGER, r REAL, s TEXT, m TEXT, "
                 "n INTEGER)")
          .ok());
  // Several heap pages, so the batch path folds across batches. Snapshot
  // 1 shares them with the current state, so AS OF 1 scans can take them
  // from a decoded-page cache.
  ASSERT_TRUE(data->Exec("BEGIN").ok());
  for (const Row& row : MakeTable(&rng, 700)) {
    ASSERT_TRUE(data->AppendRow("t", row).ok());
  }
  ASSERT_TRUE(data->Exec("COMMIT WITH SNAPSHOT").ok());
  SharedScanCache cache;
  const char* const kKeys[] = {"n",     "s",     "m",         "i, s",
                               "r",     "i + 1", "m * 2",     "n % 3, m",
                               "s, n",  "i < 2", "m, r, s"};
  for (int q = 0; q < 150; ++q) {
    TreeGen gen(&rng, /*allow_params=*/false);
    ExprPtr pred = gen.Pred(1 + static_cast<int>(rng.Uniform(3)));
    std::string keys = kKeys[rng.Uniform(11)];
    std::string sql = "SELECT AS OF 1 " + keys +
                      ", COUNT(*), SUM(i), MIN(m), MAX(s), AVG(r) FROM t "
                      "WHERE " +
                      ToSql(*pred) + " GROUP BY " + keys;
    SCOPED_TRACE(sql);
    // The plain row path is the oracle for the uncached batch, cached row
    // and cached batch paths.
    data->set_batch_execution(false);
    auto row_result = data->Query(sql);
    for (bool cached : {false, true}) {
      for (bool batch : {true, false}) {
        if (!cached && !batch) continue;  // the oracle itself
        SCOPED_TRACE(std::string(cached ? "cached " : "uncached ") +
                     (batch ? "batch" : "row"));
        data->set_scan_cache(cached ? &cache : nullptr);
        data->set_batch_execution(batch);
        auto result = data->Query(sql);
        ASSERT_EQ(result.ok(), row_result.ok())
            << result.status().ToString() << " vs "
            << row_result.status().ToString();
        if (!row_result.ok()) {
          if (!batch || gen.OneErrorKind()) {
            EXPECT_EQ(result.status().ToString(),
                      row_result.status().ToString());
          }
          continue;
        }
        EXPECT_EQ(data->last_stats().exec.batches_scanned > 0, batch);
        ASSERT_EQ(result->rows.size(), row_result->rows.size());
        for (size_t i = 0; i < row_result->rows.size(); ++i) {
          ASSERT_EQ(EncodeRow(result->rows[i]), EncodeRow(row_result->rows[i]))
              << "group " << i;
        }
      }
    }
    data->set_scan_cache(nullptr);
  }
  EXPECT_GT(cache.GetStats().shared_hits, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchExprDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(BatchExprTest, CrossTypeOrderOfConstantComparisons) {
  // One column of every type against constants of every type, in both
  // orientations: NULL < numeric < text, integers meet reals as doubles.
  // The text constants take the typed loop, the others CompareValues.
  const std::vector<Row> rows = {{Value::Null()},      {Value::Integer(2)},
                                 {Value::Real(2.0)},   {Value::Real(2.5)},
                                 {Value::Text("O")},   {Value::Text("P")},
                                 {Value::Integer(-7)}, {Value::Text("")}};
  struct Case {
    std::string sql_shape;
    BinOp op;
    Value k;
    bool constant_left;
    std::vector<uint32_t> want;
  };
  const std::vector<Case> cases = {
      {"c <> 'O'", BinOp::kNe, Value::Text("O"), false, {1, 2, 3, 5, 6, 7}},
      {"c < 'O'", BinOp::kLt, Value::Text("O"), false, {1, 2, 3, 6, 7}},
      {"'O' > c", BinOp::kGt, Value::Text("O"), true, {1, 2, 3, 6, 7}},
      {"c = 2", BinOp::kEq, Value::Integer(2), false, {1, 2}},
      {"c > 2", BinOp::kGt, Value::Integer(2), false, {3, 4, 5, 7}},
      {"2.0 >= c", BinOp::kGe, Value::Real(2.0), true, {1, 2, 6}},
      {"c = NULL", BinOp::kEq, Value::Null(), false, {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql_shape);
    ExprPtr col = MakeColumnRef("", "c");
    col->column_index = 0;
    ExprPtr k = MakeLiteral(c.k);
    ExprPtr pred = c.constant_left
                       ? MakeBinary(c.op, std::move(k), std::move(col))
                       : MakeBinary(c.op, std::move(col), std::move(k));
    std::vector<uint32_t> sel = {0, 1, 2, 3, 4, 5, 6, 7};
    ASSERT_TRUE(FilterBatch(*pred, *DecodeRows(rows), &sel).ok());
    EXPECT_EQ(sel, c.want);
    std::vector<uint32_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(FilterRowPath(*pred, rows, all).kept, c.want);
  }
}

TEST(BatchExprTest, AndEvaluatesFailingRightSideOnLeftNullRows) {
  // Scalar AND evaluates its right operand when the left one is NULL, so
  // a right side that fails there must fail the batch too.
  const std::vector<Row> rows = {{Value::Integer(0), Value::Text("x")},
                                 {Value::Null(), Value::Text("y")}};
  ExprPtr a = MakeColumnRef("", "a");
  a->column_index = 0;
  ExprPtr b = MakeColumnRef("", "b");
  b->column_index = 1;
  ExprPtr pred = MakeBinary(
      BinOp::kAnd, MakeBinary(BinOp::kGt, std::move(a), MakeLiteral(Value::Integer(0))),
      MakeBinary(BinOp::kEq,
                 MakeBinary(BinOp::kAdd, std::move(b),
                            MakeLiteral(Value::Integer(1))),
                 MakeLiteral(Value::Integer(1))));
  std::vector<uint32_t> sel = {0, 1};
  Status st = FilterBatch(*pred, *DecodeRows(rows), &sel);
  EXPECT_EQ(st.ToString(),
            FilterRowPath(*pred, rows, {0, 1}).status.ToString());
  EXPECT_FALSE(st.ok());
}

TEST(BatchExprTest, FailsWhenRowPathFailsOnAnotherError) {
  // (-a) = 0 OR (b + 1) = 0: the row path fails on row 0 adding 1 to 'x';
  // the batch path negates a over both rows first and fails on 't'.
  // Both fail; the errors may differ.
  const std::vector<Row> rows = {{Value::Integer(1), Value::Text("x")},
                                 {Value::Text("t"), Value::Integer(0)}};
  ExprPtr a = MakeColumnRef("", "a");
  a->column_index = 0;
  ExprPtr b = MakeColumnRef("", "b");
  b->column_index = 1;
  ExprPtr pred = MakeBinary(
      BinOp::kOr,
      MakeBinary(BinOp::kEq, MakeUnary(UnOp::kNeg, std::move(a)),
                 MakeLiteral(Value::Integer(0))),
      MakeBinary(BinOp::kEq,
                 MakeBinary(BinOp::kAdd, std::move(b),
                            MakeLiteral(Value::Integer(1))),
                 MakeLiteral(Value::Integer(0))));
  std::vector<uint32_t> sel = {0, 1};
  EXPECT_FALSE(FilterBatch(*pred, *DecodeRows(rows), &sel).ok());
  EXPECT_FALSE(FilterRowPath(*pred, rows, {0, 1}).status.ok());
}

// Values the compact cell layout must carry exactly, in one column.
std::vector<Row> EdgeRows() {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const double kInf = std::numeric_limits<double>::infinity();
  return {{Value::Null(), Value::Integer(0)},
          {Value::Integer(kMin), Value::Integer(1)},
          {Value::Integer(kMax), Value::Integer(2)},
          {Value::Real(-0.0), Value::Integer(3)},
          {Value::Real(0.0), Value::Integer(4)},
          {Value::Integer(0), Value::Integer(5)},
          {Value::Real(-kInf), Value::Integer(6)},
          {Value::Real(kInf), Value::Integer(7)},
          {Value::Real(std::numeric_limits<double>::denorm_min()),
           Value::Integer(8)},
          {Value::Text(""), Value::Integer(9)},
          {Value::Text(std::string(300, 'q')), Value::Integer(10)},
          {Value::Text("O"), Value::Integer(11)}};
}

TEST(BatchExprTest, EdgeValuesMatchRowPath) {
  const std::vector<Row> rows = EdgeRows();
  const std::shared_ptr<const DecodedPage> page = DecodeRows(rows);
  ASSERT_EQ(page->size(), rows.size());
  Row got;
  for (uint32_t r = 0; r < page->size(); ++r) {
    page->MaterializeRow(r, &got);
    EXPECT_EQ(EncodeRow(got), EncodeRow(rows[r])) << "row " << r;
  }
  // Every comparison of the column with every edge value, both ways round.
  std::vector<Value> constants;
  for (const Row& row : rows) constants.push_back(row[0]);
  std::vector<uint32_t> all;
  for (uint32_t i = 0; i < rows.size(); ++i) all.push_back(i);
  const BinOp kOps[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                        BinOp::kLe, BinOp::kGt, BinOp::kGe};
  for (BinOp op : kOps) {
    for (const Value& k : constants) {
      for (bool constant_left : {false, true}) {
        ExprPtr col = MakeColumnRef("", "c");
        col->column_index = 0;
        ExprPtr pred = constant_left
                           ? MakeBinary(op, MakeLiteral(k), std::move(col))
                           : MakeBinary(op, std::move(col), MakeLiteral(k));
        SCOPED_TRACE(ToSql(*pred));
        std::vector<uint32_t> sel = all;
        ASSERT_TRUE(FilterBatch(*pred, *page, &sel).ok());
        EXPECT_EQ(sel, FilterRowPath(*pred, rows, all).kept);
      }
    }
  }
  // Through both executors: -0.0 and 0.0 compare equal but group apart
  // (group keys are compared by bit pattern), and MIN/MAX keep the first
  // of equal values.
  storage::InMemoryEnv env;
  auto db = Database::Open(&env, "data");
  ASSERT_TRUE(db.ok());
  Database* data = db->get();
  ASSERT_TRUE(data->Exec("CREATE TABLE e (c TEXT, n INTEGER)").ok());
  for (int copy = 0; copy < 3; ++copy) {
    for (const Row& row : rows) ASSERT_TRUE(data->AppendRow("e", row).ok());
  }
  for (const char* sql :
       {"SELECT c, COUNT(*), MIN(n), MAX(n) FROM e GROUP BY c",
        "SELECT MIN(c), MAX(c), COUNT(c) FROM e",
        "SELECT n, c FROM e WHERE c = 0",
        "SELECT n FROM e WHERE c = '' OR c IS NULL",
        "SELECT c, COUNT(*) FROM e WHERE c < 'O' GROUP BY c"}) {
    SCOPED_TRACE(sql);
    data->set_batch_execution(false);
    auto row_result = data->Query(sql);
    data->set_batch_execution(true);
    auto batch_result = data->Query(sql);
    ASSERT_TRUE(row_result.ok() && batch_result.ok());
    EXPECT_GT(data->last_stats().exec.batches_scanned, 0);
    ASSERT_EQ(batch_result->rows.size(), row_result->rows.size());
    for (size_t i = 0; i < row_result->rows.size(); ++i) {
      EXPECT_EQ(EncodeRow(batch_result->rows[i]),
                EncodeRow(row_result->rows[i]))
          << "row " << i;
    }
  }
}

TEST(BatchExprTest, TextCellEndingAtTheFramesLastByte) {
  storage::Page frame;
  frame.Zero();
  const std::string record =
      EncodeRow({Value::Integer(1), Value::Text("tail")});
  char* at = frame.data + storage::kPageSize - record.size();
  std::memcpy(at, record.data(), record.size());
  DecodedPage page;
  page.base = frame.data;
  ASSERT_TRUE(page.AppendRecord(std::string_view(at, record.size()), 0).ok());
  ASSERT_EQ(page.size(), 1u);
  const std::string_view text = page.cell(0, 1).text();
  EXPECT_EQ(text, "tail");
  EXPECT_EQ(text.data() + text.size(), frame.data + storage::kPageSize);

  ExprPtr col = MakeColumnRef("", "c");
  col->column_index = 1;
  ExprPtr pred =
      MakeBinary(BinOp::kEq, std::move(col), MakeLiteral(Value::Text("tail")));
  std::vector<uint32_t> sel = {0};
  ASSERT_TRUE(FilterBatch(*pred, page, &sel).ok());
  EXPECT_EQ(sel, std::vector<uint32_t>{0});
}

TEST(BatchExprTest, MalformedRecordsFailAsDecodeRowDoes) {
  // Every malformed shape: cut at each byte of a record holding every
  // type, a bad tag, and a trailing byte. The page fails with DecodeRow's
  // error and keeps only the rows it had.
  const std::string good = EncodeRow({Value::Null(), Value::Integer(-5),
                                      Value::Real(-0.0), Value::Text("abc")});
  std::vector<std::string> bad;
  for (size_t n = 0; n < good.size(); ++n) bad.push_back(good.substr(0, n));
  bad.push_back(good + "x");
  std::string bad_tag = good;
  bad_tag[4] = 9;  // the first value's tag
  bad.push_back(bad_tag);
  for (const std::string& record : bad) {
    const std::string bytes = good + record;
    DecodedPage page;
    page.base = bytes.data();
    ASSERT_TRUE(
        page.AppendRecord(std::string_view(bytes.data(), good.size()), 0)
            .ok());
    const std::string_view tail(bytes.data() + good.size(), record.size());
    Status st = page.AppendRecord(tail, 1);
    Result<Row> want = DecodeRow(tail);
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(st.ToString(), want.status().ToString()) << record.size();
    EXPECT_EQ(page.size(), 1u);
    EXPECT_EQ(page.tags.size(), 4u);
    EXPECT_EQ(page.cells.size(), 4u);
  }
}

TEST(BatchExprTest, RowsNarrowerThanTheExpressionFailLikeTheRowPath) {
  // A record one column short of what the predicate reads: the batch path
  // reports the same error the row path does on its first row.
  const std::vector<Row> rows = {{Value::Integer(1)}, {Value::Integer(2)}};
  ExprPtr col = MakeColumnRef("", "b");
  col->column_index = 1;
  ExprPtr pred =
      MakeBinary(BinOp::kEq, std::move(col), MakeLiteral(Value::Integer(2)));
  std::vector<uint32_t> sel = {0, 1};
  Status st = FilterBatch(*pred, *DecodeRows(rows), &sel);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.ToString(),
            FilterRowPath(*pred, rows, {0, 1}).status.ToString());
}

}  // namespace
}  // namespace rql::sql
