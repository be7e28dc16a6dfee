#ifndef RQL_SQL_EXPR_H_
#define RQL_SQL_EXPR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
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

/// Vectorized predicate evaluation: narrows `sel` (indices into `rows`,
/// all rows of one width) in place to the rows where `pred` is TRUE,
/// keeping their order. Requires EvalBatchSupported(pred).
///
/// Operands are read by reference — a column of `rows`, or the literal
/// or bound parameter in the tree — and only computed (arithmetic)
/// values are materialized. It selects exactly the rows scalar EvalExpr
/// + ValueIsTrue per row would, and fails if and only if that row path
/// fails: every subexpression that can fail runs on exactly the rows the
/// scalar path evaluates it on (AND/OR evaluate their right operand only
/// for the rows the left operand leaves undecided, TRUE *or NULL* for
/// AND). A tree that can raise two kinds of error may report the other
/// one, as operands are evaluated across the batch one at a time. Any
/// error aborts the whole batch. INTERNALS.md §12 has the contract.
Status FilterBatch(const Expr& pred, const Row* rows,
                   std::vector<uint32_t>* sel);

/// Vectorized expression evaluation: computes `expr` for each row index
/// in sel[0..count) of `rows`, writing one value per selected row into
/// `out` (resized to count). Requires EvalBatchSupported(expr). Same
/// semantics and error behavior as FilterBatch.
Status EvalBatch(const Expr& expr, const Row* rows, const uint32_t* sel,
                 size_t count, std::vector<Value>* out);

/// SQL truthiness of a value: NULL and zero are false.
bool ValueIsTrue(const Value& v);

/// SQL LIKE with % and _ wildcards (case-sensitive).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace rql::sql

#endif  // RQL_SQL_EXPR_H_
