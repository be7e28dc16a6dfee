#ifndef RQL_SQL_EXPR_H_
#define RQL_SQL_EXPR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/decoded_page.h"
#include "sql/functions.h"
#include "sql/schema.h"

namespace rql::sql {

/// Name-resolution scope: the tables visible to an expression, in FROM
/// order. Column references resolve to offsets into the concatenation of
/// the tables' rows.
struct BindScope {
  struct Entry {
    std::string alias;           // lower-cased
    const TableSchema* schema;
    int offset;                  // first column's index in the joined row
  };
  std::vector<Entry> entries;
  int total_columns = 0;

  void Add(std::string_view alias, const TableSchema* schema);
};

/// Resolves every column reference in `expr` against `scope`, setting
/// Expr::column_index. Fails on unknown or ambiguous names.
Status BindExpr(Expr* expr, const BindScope& scope);

/// True if the (sub)tree contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

/// Collects pointers to the aggregate call nodes in evaluation order.
void CollectAggregates(Expr* expr, std::vector<Expr*>* out);

/// Executes uncorrelated subquery expressions for the evaluator. The
/// SELECT executor implements this with per-statement result caching (an
/// uncorrelated subquery's result is row-independent).
class SubqueryRunner {
 public:
  virtual ~SubqueryRunner() = default;
  /// Materialized rows of `expr` (kind == kSubquery). The pointer stays
  /// valid for the lifetime of the enclosing statement execution.
  virtual Result<const std::vector<Row>*> RunSubquery(const Expr& expr) = 0;
};

/// Evaluation context: the current joined input row plus, during the
/// output phase of an aggregation, the computed value of each aggregate
/// node.
struct EvalContext {
  const Row* row = nullptr;
  const FunctionRegistry* functions = nullptr;
  /// Parallel arrays: aggregate node -> its value for the current group.
  const std::vector<const Expr*>* agg_nodes = nullptr;
  const std::vector<Value>* agg_values = nullptr;
  /// Present only where subqueries are supported (SELECT execution).
  SubqueryRunner* subqueries = nullptr;
};

/// Evaluates a bound expression with SQL three-valued logic (comparisons
/// with NULL yield NULL, AND/OR follow Kleene logic).
Result<Value> EvalExpr(const Expr& expr, const EvalContext& ctx);

/// True if `expr` is in the subset the vectorized evaluator handles:
/// literals, bound parameters, column references, unary operators,
/// comparisons (including LIKE) and arithmetic, and AND/OR over those.
/// Function calls, IN, CASE and subqueries are not vectorized; callers
/// route such expressions through scalar EvalExpr row by row (the
/// "scalar fallback"). The answer is row-independent, so callers check
/// once per scan, not per batch.
bool EvalBatchSupported(const Expr& expr);

/// The values of one expression over the selected rows sel[0..count) of
/// a DecodedPage: a borrowed page column, read cell by cell in place; a
/// borrowed literal or bound parameter, the same for every row; or values
/// computed for this selection (arithmetic, a truth used as a datum), one
/// per selected row. at(i) reads the i-th selected row's value without
/// copying it.
struct BatchValues {
  const DecodedPage* page = nullptr;
  const uint32_t* sel = nullptr;
  size_t count = 0;
  int column = -1;
  bool is_scalar = false;
  ValueRef scalar;
  std::vector<Value> values;

  /// Points at a new selection, keeping the computed-values buffer's
  /// storage for reuse.
  void Reset(const DecodedPage* p, const uint32_t* s, size_t n) {
    page = p;
    sel = s;
    count = n;
    column = -1;
    is_scalar = false;
    values.clear();
  }
  void SetScalar(const Value& v) {
    is_scalar = true;
    scalar = v;
  }
  size_t size() const { return count; }
  ValueRef at(size_t i) const {
    if (column >= 0) return page->cell(sel[i], static_cast<size_t>(column));
    if (is_scalar) return scalar;
    return values[i];
  }
};

/// Vectorized predicate evaluation: narrows `sel` (indices into `page`'s
/// rows, all of one width) in place to the rows where `pred` is TRUE,
/// keeping their order. Requires EvalBatchSupported(pred).
///
/// Operands are read by reference — a column of the page's cells, or the
/// literal or bound parameter in the tree — and only computed
/// (arithmetic) values are materialized. It selects exactly the rows
/// scalar EvalExpr + ValueIsTrue per (materialized) row would, and fails
/// if and only if that row path fails: every subexpression that can fail
/// runs on exactly the rows the scalar path evaluates it on (AND/OR
/// evaluate their right operand only for the rows the left operand leaves
/// undecided, TRUE *or NULL* for AND). A tree that can raise two kinds of
/// error may report the other one, as operands are evaluated across the
/// batch one at a time. Any error aborts the whole batch. INTERNALS.md
/// §12 has the contract.
Status FilterBatch(const Expr& pred, const DecodedPage& page,
                   std::vector<uint32_t>* sel);

/// Vectorized expression evaluation: `expr` for each row index in
/// sel[0..count) of `page`, into `out` (whose computed-values buffer is
/// reused). `sel` and `page` must outlive `out`'s reads. Requires
/// EvalBatchSupported(expr). Same semantics and error behavior as
/// FilterBatch.
Status EvalBatch(const Expr& expr, const DecodedPage& page,
                 const uint32_t* sel, size_t count, BatchValues* out);

/// SQL truthiness of a value: NULL and zero are false.
bool ValueIsTrue(ValueRef v);

/// SQL LIKE with % and _ wildcards (case-sensitive).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace rql::sql

#endif  // RQL_SQL_EXPR_H_
