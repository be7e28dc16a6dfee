#include "sql/expr.h"

#include <cmath>

namespace rql::sql {

void BindScope::Add(std::string_view alias, const TableSchema* schema) {
  entries.push_back(Entry{IdentLower(alias), schema, total_columns});
  total_columns += static_cast<int>(schema->size());
}

Status BindExpr(Expr* expr, const BindScope& scope) {
  if (expr->kind == ExprKind::kColumnRef) {
    int found = -1;
    for (const BindScope::Entry& entry : scope.entries) {
      if (!expr->table.empty() &&
          !IdentEquals(expr->table, entry.alias)) {
        continue;
      }
      int idx = entry.schema->FindColumn(expr->name);
      if (idx >= 0) {
        if (found >= 0) {
          return Status::InvalidArgument("ambiguous column: " + expr->name);
        }
        found = entry.offset + idx;
      }
    }
    if (found < 0) {
      return Status::InvalidArgument("no such column: " +
                                     (expr->table.empty()
                                          ? expr->name
                                          : expr->table + "." + expr->name));
    }
    expr->column_index = found;
    return Status::OK();
  }
  for (ExprPtr& arg : expr->args) {
    RQL_RETURN_IF_ERROR(BindExpr(arg.get(), scope));
  }
  return Status::OK();
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kFunctionCall && IsAggregateFunction(expr.name)) {
    return true;
  }
  for (const ExprPtr& arg : expr.args) {
    if (ContainsAggregate(*arg)) return true;
  }
  return false;
}

void CollectAggregates(Expr* expr, std::vector<Expr*>* out) {
  if (expr->kind == ExprKind::kFunctionCall &&
      IsAggregateFunction(expr->name)) {
    out->push_back(expr);
    return;  // aggregates do not nest
  }
  for (ExprPtr& arg : expr->args) {
    CollectAggregates(arg.get(), out);
  }
}

bool ValueIsTrue(ValueRef v) {
  switch (v.type()) {
    case ValueType::kNull: return false;
    case ValueType::kInteger: return v.integer() != 0;
    case ValueType::kReal: return v.real() != 0.0;
    case ValueType::kText: return false;  // SQLite: non-numeric text is 0
  }
  return false;
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative glob with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq: case BinOp::kNe: case BinOp::kLt: case BinOp::kLe:
    case BinOp::kGt: case BinOp::kGe: case BinOp::kLike:
      return true;
    default:
      return false;
  }
}

Result<Value> EvalComparison(BinOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (op == BinOp::kLike) {
    return Value::Integer(LikeMatch(lhs.ToString(), rhs.ToString()) ? 1 : 0);
  }
  int c = CompareValues(lhs, rhs);
  bool result = false;
  switch (op) {
    case BinOp::kEq: result = c == 0; break;
    case BinOp::kNe: result = c != 0; break;
    case BinOp::kLt: result = c < 0; break;
    case BinOp::kLe: result = c <= 0; break;
    case BinOp::kGt: result = c > 0; break;
    case BinOp::kGe: result = c >= 0; break;
    default: return Status::Internal("not a comparison");
  }
  return Value::Integer(result ? 1 : 0);
}

Result<Value> EvalArithmetic(BinOp op, ValueRef lhs, ValueRef rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  bool both_int = lhs.type() == ValueType::kInteger &&
                  rhs.type() == ValueType::kInteger;
  if (both_int && op != BinOp::kDiv) {
    int64_t a = lhs.integer(), b = rhs.integer();
    switch (op) {
      case BinOp::kAdd: return Value::Integer(a + b);
      case BinOp::kSub: return Value::Integer(a - b);
      case BinOp::kMul: return Value::Integer(a * b);
      case BinOp::kMod:
        if (b == 0) return Value::Null();
        return Value::Integer(a % b);
      default: break;
    }
  }
  double a = lhs.AsDouble(), b = rhs.AsDouble();
  switch (op) {
    case BinOp::kAdd: return Value::Real(a + b);
    case BinOp::kSub: return Value::Real(a - b);
    case BinOp::kMul: return Value::Real(a * b);
    case BinOp::kDiv:
      if (b == 0.0) return Value::Null();
      if (both_int && lhs.integer() % rhs.integer() == 0) {
        return Value::Integer(lhs.integer() / rhs.integer());
      }
      return Value::Real(a / b);
    case BinOp::kMod:
      if (b == 0.0) return Value::Null();
      return Value::Real(std::fmod(a, b));
    default:
      return Status::Internal("not arithmetic");
  }
}

}  // namespace

bool EvalBatchSupported(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
    case ExprKind::kColumnRef:
      return true;
    case ExprKind::kUnary:
      return EvalBatchSupported(*expr.args[0]);
    case ExprKind::kBinary:
      return EvalBatchSupported(*expr.args[0]) &&
             EvalBatchSupported(*expr.args[1]);
    default:
      return false;
  }
}

namespace {

// Batch evaluation. Every evaluator below runs over the selected rows
// sel[0..count) of one page with count > 0; the public entry points
// return early on empty selections, so a subexpression is never
// evaluated over zero rows (the scalar path evaluates it on none either).

// Kleene truth of one selected row.
enum Truth : uint8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

// Comparisons, AND/OR, NOT and IS [NOT] NULL yield a truth value;
// everything else the batch path supports yields a datum.
bool IsPredicate(const Expr& expr) {
  if (expr.kind == ExprKind::kUnary) return expr.un_op != UnOp::kNeg;
  return expr.kind == ExprKind::kBinary &&
         (IsComparison(expr.bin_op) || expr.bin_op == BinOp::kAnd ||
          expr.bin_op == BinOp::kOr);
}

Status EvalTruth(const Expr& expr, const DecodedPage& page,
                 const uint32_t* sel, size_t count, std::vector<uint8_t>* out);

// Fills `out` for expr over page rows sel[0..count). Leaves are borrowed:
// a page column, or the literal or bound parameter in the tree; only a
// computed subtree materializes one Value per selected row.
Status EvalOperand(const Expr& expr, const DecodedPage& page,
                   const uint32_t* sel, size_t count, BatchValues* out) {
  out->Reset(&page, sel, count);
  switch (expr.kind) {
    case ExprKind::kLiteral:
      out->SetScalar(expr.literal);
      return Status::OK();
    case ExprKind::kParameter:
      if (!expr.param_bound) {
        return Status::InvalidArgument(
            "unbound parameter ?" + std::to_string(expr.param_index));
      }
      out->SetScalar(expr.literal);
      return Status::OK();
    case ExprKind::kColumnRef:
      // The batch's rows share one width (ScanBatched checks every
      // row's arity), so one check covers the batch.
      if (expr.column_index < 0 ||
          static_cast<uint32_t>(expr.column_index) >= page.width(sel[0])) {
        return Status::Internal("unbound column reference: " + expr.name);
      }
      out->column = expr.column_index;
      return Status::OK();
    default:
      break;
  }
  out->values.resize(count);
  if (IsPredicate(expr)) {
    std::vector<uint8_t> truth;
    RQL_RETURN_IF_ERROR(EvalTruth(expr, page, sel, count, &truth));
    for (size_t i = 0; i < count; ++i) {
      out->values[i] = truth[i] == kUnknown
                           ? Value::Null()
                           : Value::Integer(truth[i] == kTrue ? 1 : 0);
    }
    return Status::OK();
  }
  if (expr.kind == ExprKind::kUnary) {  // kNeg
    BatchValues in;
    RQL_RETURN_IF_ERROR(EvalOperand(*expr.args[0], page, sel, count, &in));
    for (size_t i = 0; i < count; ++i) {
      ValueRef v = in.at(i);
      if (v.type() == ValueType::kInteger) {
        out->values[i] = Value::Integer(-v.integer());
      } else if (v.type() == ValueType::kReal) {
        out->values[i] = Value::Real(-v.real());
      } else if (!v.is_null()) {
        return Status::InvalidArgument("cannot negate a text value");
      }
    }
    return Status::OK();
  }
  if (expr.kind == ExprKind::kBinary) {  // arithmetic
    BatchValues lhs, rhs;
    RQL_RETURN_IF_ERROR(EvalOperand(*expr.args[0], page, sel, count, &lhs));
    RQL_RETURN_IF_ERROR(EvalOperand(*expr.args[1], page, sel, count, &rhs));
    for (size_t i = 0; i < count; ++i) {
      RQL_ASSIGN_OR_RETURN(out->values[i],
                           EvalArithmetic(expr.bin_op, lhs.at(i), rhs.at(i)));
    }
    return Status::OK();
  }
  return Status::Internal("expression not supported by EvalBatch");
}

// A comparison as a set of three-way results: bit (c + 1) is set when
// CompareValues' result c satisfies `op`.
unsigned ComparisonBits(BinOp op) {
  switch (op) {
    case BinOp::kEq: return 0b010;
    case BinOp::kNe: return 0b101;
    case BinOp::kLt: return 0b001;
    case BinOp::kLe: return 0b011;
    case BinOp::kGt: return 0b100;
    default: return 0b110;  // kGe
  }
}

// The same comparison with its operands swapped: c(a, b) == -c(b, a).
unsigned MirrorBits(unsigned bits) {
  return (bits & 0b010) | ((bits & 0b001) << 2) | ((bits & 0b100) >> 2);
}

Truth Holds(unsigned bits, int c) {
  return ((bits >> (c + 1)) & 1u) != 0 ? kTrue : kFalse;
}

// `page[sel[i]][col] op text` for every selected row, with `bits`
// oriented so the column is on the left, read straight off the page's
// cells. It keeps CompareValues' order NULL < numeric < text: a numeric
// value is below any text constant.
template <typename Emit>
void CompareColumnToText(unsigned bits, uint32_t col, std::string_view text,
                         const DecodedPage& page, const uint32_t* sel,
                         size_t count, Emit emit) {
  // Only the sign of c matters, so = and <> need equality alone.
  bool equality = bits == 0b010 || bits == 0b101;
  const uint32_t* row_begin = page.row_begin.data();
  const ValueType* tags = page.tags.data();
  const uint64_t* cells = page.cells.data();
  for (size_t i = 0; i < count; ++i) {
    const uint32_t at = row_begin[sel[i]] + col;
    const ValueType type = tags[at];
    if (type == ValueType::kText) {
      const uint64_t cell = cells[at];
      std::string_view v(page.base + (cell >> 32),
                         static_cast<uint32_t>(cell));
      int c = equality ? (v == text ? 0 : 1) : v.compare(text);
      emit(i, Holds(bits, c < 0 ? -1 : (c > 0 ? 1 : 0)));
    } else {
      emit(i, type == ValueType::kNull ? kUnknown : Holds(bits, -1));
    }
  }
}

// Calls emit(i, truth) for each selected row i in order, after reading
// that row's operands — so `emit` may narrow `sel` in place.
template <typename Emit>
void CompareOperands(BinOp op, const BatchValues& lhs, const BatchValues& rhs,
                     Emit emit) {
  const size_t count = lhs.count;
  if (op == BinOp::kLike) {
    for (size_t i = 0; i < count; ++i) {
      ValueRef l = lhs.at(i);
      ValueRef r = rhs.at(i);
      if (l.is_null() || r.is_null()) {
        emit(i, kUnknown);
      } else if (l.type() == ValueType::kText &&
                 r.type() == ValueType::kText) {
        emit(i, LikeMatch(l.text(), r.text()) ? kTrue : kFalse);
      } else {
        emit(i, LikeMatch(l.ToValue().ToString(), r.ToValue().ToString())
                    ? kTrue
                    : kFalse);
      }
    }
    return;
  }
  unsigned bits = ComparisonBits(op);
  // A column against a text constant, in either orientation, takes the
  // typed loop; every other shape compares through CompareValues.
  auto is_text = [](const BatchValues& v) {
    return v.is_scalar && v.scalar.type() == ValueType::kText;
  };
  if (lhs.column >= 0 && is_text(rhs)) {
    CompareColumnToText(bits, static_cast<uint32_t>(lhs.column),
                        rhs.scalar.text(), *lhs.page, lhs.sel, count, emit);
    return;
  }
  if (rhs.column >= 0 && is_text(lhs)) {
    CompareColumnToText(MirrorBits(bits), static_cast<uint32_t>(rhs.column),
                        lhs.scalar.text(), *rhs.page, rhs.sel, count, emit);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    ValueRef l = lhs.at(i);
    ValueRef r = rhs.at(i);
    emit(i, l.is_null() || r.is_null() ? kUnknown
                                        : Holds(bits, CompareValues(l, r)));
  }
}

Status EvalTruth(const Expr& expr, const DecodedPage& page,
                 const uint32_t* sel, size_t count,
                 std::vector<uint8_t>* out) {
  if (expr.kind == ExprKind::kBinary && IsComparison(expr.bin_op)) {
    BatchValues lhs, rhs;
    RQL_RETURN_IF_ERROR(EvalOperand(*expr.args[0], page, sel, count, &lhs));
    RQL_RETURN_IF_ERROR(EvalOperand(*expr.args[1], page, sel, count, &rhs));
    out->resize(count);
    uint8_t* truth = out->data();
    CompareOperands(expr.bin_op, lhs, rhs,
                    [truth](size_t i, Truth t) { truth[i] = t; });
    return Status::OK();
  }
  if (expr.kind == ExprKind::kBinary &&
      (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr)) {
    RQL_RETURN_IF_ERROR(EvalTruth(*expr.args[0], page, sel, count, out));
    // The right operand runs only over the rows the left side leaves
    // undecided — TRUE or NULL for AND, FALSE or NULL for OR — the batch
    // form of the scalar short-circuit.
    Truth decided = expr.bin_op == BinOp::kAnd ? kFalse : kTrue;
    std::vector<uint32_t> sub;
    std::vector<uint32_t> sub_pos;
    for (size_t i = 0; i < count; ++i) {
      if ((*out)[i] == decided) continue;
      sub.push_back(sel[i]);
      sub_pos.push_back(static_cast<uint32_t>(i));
    }
    if (sub.empty()) return Status::OK();
    std::vector<uint8_t> rhs;
    RQL_RETURN_IF_ERROR(
        EvalTruth(*expr.args[1], page, sub.data(), sub.size(), &rhs));
    for (size_t j = 0; j < sub.size(); ++j) {
      uint8_t& slot = (*out)[sub_pos[j]];
      if (rhs[j] == decided) {
        slot = decided;
      } else if (rhs[j] == kUnknown) {
        slot = kUnknown;
      }  // else both sides are the non-deciding value: slot already is
    }
    return Status::OK();
  }
  if (expr.kind == ExprKind::kUnary && expr.un_op == UnOp::kNot) {
    RQL_RETURN_IF_ERROR(EvalTruth(*expr.args[0], page, sel, count, out));
    for (uint8_t& t : *out) {
      if (t != kUnknown) t = t == kTrue ? kFalse : kTrue;
    }
    return Status::OK();
  }
  if (expr.kind == ExprKind::kUnary && expr.un_op != UnOp::kNeg) {
    // IS [NOT] NULL: never unknown.
    bool want_null = expr.un_op == UnOp::kIsNull;
    const Expr& arg = *expr.args[0];
    if (IsPredicate(arg)) {
      RQL_RETURN_IF_ERROR(EvalTruth(arg, page, sel, count, out));
      for (uint8_t& t : *out) {
        t = (t == kUnknown) == want_null ? kTrue : kFalse;
      }
      return Status::OK();
    }
    BatchValues v;
    RQL_RETURN_IF_ERROR(EvalOperand(arg, page, sel, count, &v));
    out->resize(count);
    for (size_t i = 0; i < count; ++i) {
      (*out)[i] = v.at(i).is_null() == want_null ? kTrue : kFalse;
    }
    return Status::OK();
  }
  // A datum used as a predicate: ValueIsTrue, with NULL unknown.
  BatchValues v;
  RQL_RETURN_IF_ERROR(EvalOperand(expr, page, sel, count, &v));
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    ValueRef x = v.at(i);
    (*out)[i] = x.is_null() ? kUnknown : (ValueIsTrue(x) ? kTrue : kFalse);
  }
  return Status::OK();
}

// FilterBatch over a non-empty selection.
Status FilterSelected(const Expr& pred, const DecodedPage& page,
                      std::vector<uint32_t>* sel) {
  uint32_t* s = sel->data();
  size_t count = sel->size();
  size_t keep = 0;
  if (pred.kind == ExprKind::kBinary && IsComparison(pred.bin_op)) {
    BatchValues lhs, rhs;
    RQL_RETURN_IF_ERROR(EvalOperand(*pred.args[0], page, s, count, &lhs));
    RQL_RETURN_IF_ERROR(EvalOperand(*pred.args[1], page, s, count, &rhs));
    CompareOperands(pred.bin_op, lhs, rhs, [s, &keep](size_t i, Truth t) {
      if (t == kTrue) s[keep++] = s[i];
    });
    sel->resize(keep);
    return Status::OK();
  }
  std::vector<uint8_t> truth;
  RQL_RETURN_IF_ERROR(EvalTruth(pred, page, s, count, &truth));
  for (size_t i = 0; i < count; ++i) {
    if (truth[i] == kTrue) s[keep++] = s[i];
  }
  sel->resize(keep);
  return Status::OK();
}

}  // namespace

Status FilterBatch(const Expr& pred, const DecodedPage& page,
                   std::vector<uint32_t>* sel) {
  if (sel->empty()) return Status::OK();
  return FilterSelected(pred, page, sel);
}

Status EvalBatch(const Expr& expr, const DecodedPage& page,
                 const uint32_t* sel, size_t count, BatchValues* out) {
  if (count > 0) return EvalOperand(expr, page, sel, count, out);
  out->Reset(&page, sel, count);
  return Status::OK();
}

Result<Value> EvalExpr(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;

    case ExprKind::kParameter:
      if (!expr.param_bound) {
        return Status::InvalidArgument(
            "unbound parameter ?" + std::to_string(expr.param_index));
      }
      return expr.literal;

    case ExprKind::kColumnRef: {
      if (ctx.row == nullptr || expr.column_index < 0 ||
          expr.column_index >= static_cast<int>(ctx.row->size())) {
        return Status::Internal("unbound column reference: " + expr.name);
      }
      return (*ctx.row)[expr.column_index];
    }

    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is not valid here");

    case ExprKind::kUnary: {
      if (expr.un_op == UnOp::kIsNull || expr.un_op == UnOp::kIsNotNull) {
        RQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.args[0], ctx));
        bool is_null = v.is_null();
        return Value::Integer(
            (expr.un_op == UnOp::kIsNull ? is_null : !is_null) ? 1 : 0);
      }
      RQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.args[0], ctx));
      if (expr.un_op == UnOp::kNot) {
        if (v.is_null()) return Value::Null();
        return Value::Integer(ValueIsTrue(v) ? 0 : 1);
      }
      // kNeg
      if (v.is_null()) return Value::Null();
      if (v.type() == ValueType::kInteger) return Value::Integer(-v.integer());
      if (v.type() == ValueType::kReal) return Value::Real(-v.real());
      return Status::InvalidArgument("cannot negate a text value");
    }

    case ExprKind::kBinary: {
      // Kleene three-valued AND/OR with short-circuiting.
      if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
        RQL_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.args[0], ctx));
        bool is_and = expr.bin_op == BinOp::kAnd;
        if (!lhs.is_null()) {
          bool lt = ValueIsTrue(lhs);
          if (is_and && !lt) return Value::Integer(0);
          if (!is_and && lt) return Value::Integer(1);
        }
        RQL_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.args[1], ctx));
        if (!rhs.is_null()) {
          bool rt = ValueIsTrue(rhs);
          if (is_and && !rt) return Value::Integer(0);
          if (!is_and && rt) return Value::Integer(1);
        }
        if (lhs.is_null() || rhs.is_null()) return Value::Null();
        return Value::Integer(is_and ? 1 : 0);
      }
      RQL_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.args[0], ctx));
      RQL_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.args[1], ctx));
      return IsComparison(expr.bin_op)
                 ? EvalComparison(expr.bin_op, lhs, rhs)
                 : EvalArithmetic(expr.bin_op, lhs, rhs);
    }

    case ExprKind::kIn: {
      // SQL semantics: TRUE on a match; otherwise NULL if the operand or
      // any candidate is NULL, else FALSE. NOT IN negates with 3VL.
      RQL_ASSIGN_OR_RETURN(Value needle, EvalExpr(*expr.args[0], ctx));
      bool saw_null = needle.is_null();
      bool matched = false;
      auto consider = [&](const Value& candidate) {
        if (candidate.is_null()) {
          saw_null = true;
        } else if (!matched && !needle.is_null() &&
                   CompareValues(needle, candidate) == 0) {
          matched = true;
        }
      };
      if (expr.args.size() == 2 &&
          expr.args[1]->kind == ExprKind::kSubquery) {
        if (ctx.subqueries == nullptr) {
          return Status::NotSupported("subquery not supported here");
        }
        RQL_ASSIGN_OR_RETURN(const std::vector<Row>* rows,
                             ctx.subqueries->RunSubquery(*expr.args[1]));
        for (const Row& row : *rows) {
          if (row.size() != 1) {
            return Status::InvalidArgument(
                "IN subquery must return a single column");
          }
          if (matched) break;
          consider(row[0]);
        }
      } else if (!needle.is_null()) {
        for (size_t i = 1; i < expr.args.size(); ++i) {
          RQL_ASSIGN_OR_RETURN(Value candidate,
                               EvalExpr(*expr.args[i], ctx));
          consider(candidate);
          if (matched) break;
        }
      }
      if (matched) return Value::Integer(expr.negated ? 0 : 1);
      if (saw_null) return Value::Null();
      return Value::Integer(expr.negated ? 1 : 0);
    }

    case ExprKind::kSubquery: {
      // Scalar position: first column of the single result row.
      if (ctx.subqueries == nullptr) {
        return Status::NotSupported("subquery not supported here");
      }
      RQL_ASSIGN_OR_RETURN(const std::vector<Row>* rows,
                           ctx.subqueries->RunSubquery(expr));
      if (rows->empty()) return Value::Null();
      if (rows->size() > 1) {
        return Status::InvalidArgument(
            "scalar subquery returned more than one row");
      }
      if ((*rows)[0].size() != 1) {
        return Status::InvalidArgument(
            "scalar subquery must return a single column");
      }
      return (*rows)[0][0];
    }

    case ExprKind::kCase: {
      size_t i = 0;
      Value base;
      if (expr.case_has_base) {
        RQL_ASSIGN_OR_RETURN(base, EvalExpr(*expr.args[0], ctx));
        i = 1;
      }
      size_t end = expr.args.size() - (expr.case_has_else ? 1 : 0);
      for (; i + 1 < end + 1 && i + 1 < expr.args.size(); i += 2) {
        RQL_ASSIGN_OR_RETURN(Value when, EvalExpr(*expr.args[i], ctx));
        bool hit = expr.case_has_base
                       ? (!when.is_null() && !base.is_null() &&
                          CompareValues(base, when) == 0)
                       : ValueIsTrue(when);
        if (hit) return EvalExpr(*expr.args[i + 1], ctx);
      }
      if (expr.case_has_else) {
        return EvalExpr(*expr.args.back(), ctx);
      }
      return Value::Null();
    }

    case ExprKind::kFunctionCall: {
      if (IsAggregateFunction(expr.name)) {
        // During group output the aggregation pipeline supplies values.
        if (ctx.agg_nodes != nullptr) {
          for (size_t i = 0; i < ctx.agg_nodes->size(); ++i) {
            if ((*ctx.agg_nodes)[i] == &expr) return (*ctx.agg_values)[i];
          }
        }
        return Status::InvalidArgument("aggregate " + expr.name +
                                       " used outside an aggregation");
      }
      if (ctx.functions == nullptr) {
        return Status::Internal("no function registry in scope");
      }
      const FunctionDef* def = ctx.functions->Find(expr.name);
      if (def == nullptr) {
        return Status::InvalidArgument("no such function: " + expr.name);
      }
      int argc = static_cast<int>(expr.args.size());
      if (argc < def->min_args ||
          (def->max_args >= 0 && argc > def->max_args)) {
        return Status::InvalidArgument("wrong argument count for " +
                                       expr.name);
      }
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const ExprPtr& arg : expr.args) {
        RQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, ctx));
        args.push_back(std::move(v));
      }
      return def->fn(args);
    }
  }
  return Status::Internal("bad expression kind");
}

}  // namespace rql::sql
