#include "sql/executor.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/clock.h"
#include "rql/aggregates.h"
#include "sql/btree.h"
#include "sql/heap_table.h"

namespace rql::sql {

namespace {

// Splits a bound expression into AND-conjuncts (ownership transferred).
void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary && expr->bin_op == BinOp::kAnd) {
    SplitConjuncts(std::move(expr->args[0]), out);
    SplitConjuncts(std::move(expr->args[1]), out);
    return;
  }
  out->push_back(std::move(expr));
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr result;
  for (ExprPtr& c : conjuncts) {
    if (c == nullptr) continue;
    result = result ? MakeBinary(BinOp::kAnd, std::move(result), std::move(c))
                    : std::move(c);
  }
  return result;
}

// Highest column index referenced, or -1.
int MaxColumnIndex(const Expr& expr) {
  int max = expr.kind == ExprKind::kColumnRef ? expr.column_index : -1;
  for (const ExprPtr& arg : expr.args) {
    max = std::max(max, MaxColumnIndex(*arg));
  }
  return max;
}

std::string ExprToName(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return expr.name;
    case ExprKind::kLiteral:
      return expr.literal.ToString();
    case ExprKind::kStar:
      return "*";
    case ExprKind::kFunctionCall: {
      std::string out = expr.name + "(";
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) out += ",";
        out += ExprToName(*expr.args[i]);
      }
      return out + ")";
    }
    default:
      return "expr";
  }
}

// Names of tables an unbound expression references, resolved against the
// candidate sources by qualifier or unique column name. Used for the join
// reorder heuristic before binding.
void CollectReferencedSources(const Expr& expr,
                              const std::vector<const TableInfo*>& tables,
                              const std::vector<std::string>& aliases,
                              std::vector<bool>* referenced) {
  if (expr.kind == ExprKind::kColumnRef) {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (!expr.table.empty()) {
        if (IdentEquals(expr.table, aliases[i])) (*referenced)[i] = true;
      } else if (tables[i]->schema.FindColumn(expr.name) >= 0) {
        (*referenced)[i] = true;
      }
    }
  }
  for (const ExprPtr& arg : expr.args) {
    CollectReferencedSources(*arg, tables, aliases, referenced);
  }
}

// Aggregate accumulator for one aggregate node within one group.
struct AggAccum {
  int64_t count = 0;
  bool has_value = false;
  Value extreme;                       // MIN/MAX running value
  long double real_sum = 0;
  int64_t int_sum = 0;
  bool int_only = true;
  std::unordered_set<std::string> distinct;
};

enum class AggKind { kCount, kSum, kMin, kMax, kAvg, kTotal };

Result<AggKind> AggKindOf(const std::string& name) {
  std::string lower = IdentLower(name);
  if (lower == "count") return AggKind::kCount;
  if (lower == "sum") return AggKind::kSum;
  if (lower == "min") return AggKind::kMin;
  if (lower == "max") return AggKind::kMax;
  if (lower == "avg") return AggKind::kAvg;
  if (lower == "total") return AggKind::kTotal;
  return Status::InvalidArgument("unknown aggregate: " + name);
}

// The per-value accumulator transition, shared by the row path (after it
// evaluates the argument) and the batch path (over pre-evaluated argument
// vectors). The batch fold kernels in rql/aggregates.h replicate the
// non-distinct arm of this transition field for field; changes here must
// be mirrored there to keep row and batch results byte-identical.
Status UpdateAccumValue(AggKind kind, bool distinct, const Value& arg,
                        AggAccum* accum) {
  if (arg.is_null()) return Status::OK();  // NULLs are ignored
  if (distinct) {
    std::string key = EncodeRow({arg});
    if (!accum->distinct.insert(std::move(key)).second) return Status::OK();
  }
  ++accum->count;
  switch (kind) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kTotal:
      if (!arg.is_numeric()) {
        return Status::InvalidArgument("SUM/AVG of non-numeric value");
      }
      if (arg.type() == ValueType::kInteger) {
        accum->int_sum += arg.integer();
      } else {
        accum->int_only = false;
      }
      accum->real_sum += arg.AsDouble();
      accum->has_value = true;
      break;
    case AggKind::kMin:
      if (!accum->has_value || CompareValues(arg, accum->extreme) < 0) {
        accum->extreme = arg;
      }
      accum->has_value = true;
      break;
    case AggKind::kMax:
      if (!accum->has_value || CompareValues(arg, accum->extreme) > 0) {
        accum->extreme = arg;
      }
      accum->has_value = true;
      break;
  }
  return Status::OK();
}

Status UpdateAccum(AggKind kind, const Expr& node, const EvalContext& ectx,
                   AggAccum* accum) {
  bool is_star = !node.args.empty() && node.args[0]->kind == ExprKind::kStar;
  if (kind == AggKind::kCount && (node.args.empty() || is_star)) {
    ++accum->count;
    return Status::OK();
  }
  if (node.args.empty()) {
    return Status::InvalidArgument("aggregate requires an argument");
  }
  RQL_ASSIGN_OR_RETURN(Value arg, EvalExpr(*node.args[0], ectx));
  return UpdateAccumValue(kind, node.distinct_arg, arg, accum);
}

Value FinalizeAccum(AggKind kind, const AggAccum& accum) {
  switch (kind) {
    case AggKind::kCount:
      return Value::Integer(accum.count);
    case AggKind::kSum:
      if (!accum.has_value) return Value::Null();
      return accum.int_only ? Value::Integer(accum.int_sum)
                            : Value::Real(static_cast<double>(accum.real_sum));
    case AggKind::kTotal:
      return Value::Real(static_cast<double>(accum.real_sum));
    case AggKind::kAvg:
      if (!accum.has_value) return Value::Null();
      return Value::Real(static_cast<double>(accum.real_sum) /
                         static_cast<double>(accum.count));
    case AggKind::kMin:
    case AggKind::kMax:
      return accum.has_value ? accum.extreme : Value::Null();
  }
  return Value::Null();
}

}  // namespace

Result<std::unique_ptr<SelectExecutor>> SelectExecutor::Prepare(
    const SelectStmt* stmt, const ExecContext& ctx) {
  if (ctx.reader == nullptr || ctx.catalog == nullptr ||
      ctx.functions == nullptr) {
    return Status::Internal("incomplete execution context");
  }
  auto exec = std::unique_ptr<SelectExecutor>(new SelectExecutor(stmt, ctx));
  RQL_RETURN_IF_ERROR(exec->BindAll());
  return exec;
}

Status SelectExecutor::BindAll() {
  // Resolve FROM tables.
  std::vector<const TableInfo*> tables;
  std::vector<std::string> aliases;
  for (const TableRef& ref : stmt_->from) {
    const TableInfo* info = ctx_.catalog->FindTable(ref.name);
    if (info == nullptr) {
      return Status::NotFound("no such table: " + ref.name);
    }
    tables.push_back(info);
    aliases.push_back(ref.alias);
  }

  bool has_star = false;
  for (const SelectItem& item : stmt_->items) {
    if (item.expr->kind == ExprKind::kStar) has_star = true;
  }

  // Claim the shared plan cache for this statement only: subqueries run
  // with the same context but a different statement and must not reuse
  // another statement's decisions.
  if (ctx_.plan_cache != nullptr) {
    if (ctx_.plan_cache->owner == nullptr) ctx_.plan_cache->owner = stmt_;
    if (ctx_.plan_cache->owner == stmt_) plan_cache_ = ctx_.plan_cache;
  }

  // Join-order heuristic mirroring SQLite: for a two-table join, make the
  // table with a single-table restriction the outer one, so the other side
  // is probed (and may need an automatic index) — the paper's Fig. 9 setup.
  std::vector<size_t> order(tables.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (plan_cache_ != nullptr && plan_cache_->has_join_order &&
      plan_cache_->join_order.size() == order.size()) {
    order = plan_cache_->join_order;
    ++plan_cache_->hits;
  } else if (tables.size() == 2 && !has_star && stmt_->where != nullptr) {
    std::vector<ExprPtr> raw;
    ExprPtr where_copy = CloneExpr(*stmt_->where);
    SplitConjuncts(std::move(where_copy), &raw);
    auto restricted = [&](size_t t) {
      for (const ExprPtr& c : raw) {
        std::vector<bool> refs(tables.size(), false);
        CollectReferencedSources(*c, tables, aliases, &refs);
        size_t count = 0;
        for (bool b : refs) count += b ? 1 : 0;
        if (count == 1 && refs[t] && c->kind == ExprKind::kBinary &&
            c->bin_op != BinOp::kAnd && c->bin_op != BinOp::kOr) {
          return true;
        }
      }
      return false;
    };
    if (!restricted(0) && restricted(1)) std::swap(order[0], order[1]);
  }
  if (plan_cache_ != nullptr && !plan_cache_->has_join_order) {
    plan_cache_->join_order = order;
    plan_cache_->has_join_order = true;
  }

  for (size_t i : order) {
    TableSource source;
    source.table = tables[i];
    source.alias = aliases[i];
    scope_.Add(aliases[i], &tables[i]->schema);
    sources_.push_back(std::move(source));
  }

  // Expand '*' and clone + bind the select list.
  for (const SelectItem& item : stmt_->items) {
    if (item.expr->kind == ExprKind::kStar) {
      for (const TableSource& source : sources_) {
        for (const ColumnDef& col : source.table->schema.columns) {
          SelectItem expanded;
          expanded.expr = MakeColumnRef(source.alias, col.name);
          expanded.alias = col.name;
          items_.push_back(std::move(expanded));
        }
      }
      continue;
    }
    SelectItem cloned;
    cloned.expr = CloneExpr(*item.expr);
    cloned.alias = item.alias;
    items_.push_back(std::move(cloned));
  }
  if (items_.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  for (SelectItem& item : items_) {
    RQL_RETURN_IF_ERROR(BindExpr(item.expr.get(), scope_));
    columns_.push_back(item.alias.empty() ? ExprToName(*item.expr)
                                          : item.alias);
  }

  if (stmt_->where != nullptr) {
    where_ = CloneExpr(*stmt_->where);
    RQL_RETURN_IF_ERROR(BindExpr(where_.get(), scope_));
  }
  for (const ExprPtr& g : stmt_->group_by) {
    ExprPtr bound = CloneExpr(*g);
    RQL_RETURN_IF_ERROR(BindExpr(bound.get(), scope_));
    group_by_.push_back(std::move(bound));
  }
  if (stmt_->having != nullptr) {
    having_ = CloneExpr(*stmt_->having);
    RQL_RETURN_IF_ERROR(BindExpr(having_.get(), scope_));
  }
  for (const OrderItem& o : stmt_->order_by) {
    OrderItem bound;
    bound.desc = o.desc;
    bound.expr = CloneExpr(*o.expr);
    // Integer literals and item aliases are resolved at sort-key build
    // time; only genuine expressions need binding.
    if (bound.expr->kind != ExprKind::kLiteral) {
      bool is_alias = false;
      if (bound.expr->kind == ExprKind::kColumnRef &&
          bound.expr->table.empty()) {
        for (const SelectItem& item : items_) {
          std::string name =
              item.alias.empty() ? ExprToName(*item.expr) : item.alias;
          if (IdentEquals(name, bound.expr->name)) {
            is_alias = true;
            break;
          }
        }
      }
      if (!is_alias) {
        RQL_RETURN_IF_ERROR(BindExpr(bound.expr.get(), scope_));
      }
    }
    order_by_.push_back(std::move(bound));
  }
  need_sort_ = !order_by_.empty();

  // Aggregation?
  aggregated_ = !group_by_.empty();
  for (const SelectItem& item : items_) {
    if (ContainsAggregate(*item.expr)) aggregated_ = true;
  }
  if (having_ != nullptr && ContainsAggregate(*having_)) aggregated_ = true;
  if (aggregated_) {
    for (SelectItem& item : items_) {
      CollectAggregates(item.expr.get(), &agg_nodes_);
    }
    if (having_ != nullptr) CollectAggregates(having_.get(), &agg_nodes_);
    for (OrderItem& o : order_by_) {
      CollectAggregates(o.expr.get(), &agg_nodes_);
    }
  }

  // Plan join access paths, consuming equality conjuncts from WHERE.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(where_), &conjuncts);
  RQL_RETURN_IF_ERROR(PlanJoins(&conjuncts));

  // Predicate pushdown: attach each residual conjunct to the outermost
  // join level whose prefix of tables binds all of its columns, so rows
  // are filtered before deeper levels probe their tables.
  if (!sources_.empty()) {
    for (ExprPtr& conjunct : conjuncts) {
      if (conjunct == nullptr) continue;
      int max_col = MaxColumnIndex(*conjunct);
      size_t level = 0;
      for (size_t i = 0; i < sources_.size(); ++i) {
        const BindScope::Entry& entry = scope_.entries[i];
        if (max_col < entry.offset + static_cast<int>(entry.schema->size())) {
          level = i;
          break;
        }
        level = i;
      }
      TableSource& target = sources_[level];
      target.filter = target.filter
                          ? MakeBinary(BinOp::kAnd, std::move(target.filter),
                                       std::move(conjunct))
                          : std::move(conjunct);
    }
    conjuncts.clear();
  }
  where_ = CombineConjuncts(std::move(conjuncts));
  PlanIndexOnlyAccess();
  // A cached plan already knows which join levels need a transient index;
  // build them up front instead of re-discovering the need at first probe.
  if (plan_cache_ != nullptr) {
    for (const PlanCache::TransientSpec& spec :
         plan_cache_->transient_specs) {
      if (spec.level >= sources_.size()) continue;
      TableSource& src = sources_[spec.level];
      if (src.transient_store != nullptr || src.native_index != nullptr ||
          src.key_expr == nullptr ||
          src.inner_key_column != spec.inner_key_column ||
          src.table->name != spec.table) {
        continue;
      }
      RQL_RETURN_IF_ERROR(BuildTransientIndex(&src));
    }
  }
  return Status::OK();
}

Status SelectExecutor::PlanJoins(std::vector<ExprPtr>* conjuncts) {
  // Level 0: constant bounds on an indexed column turn the driving scan
  // into an index (range) scan. The conjuncts stay in the filter, so the
  // bounds only have to narrow the scan, never decide membership.
  if (!sources_.empty()) {
    TableSource& driver = sources_[0];
    const BindScope::Entry& entry = scope_.entries[0];
    for (const ExprPtr& conjunct : *conjuncts) {
      if (conjunct == nullptr || conjunct->kind != ExprKind::kBinary) {
        continue;
      }
      BinOp op = conjunct->bin_op;
      if (op != BinOp::kEq && op != BinOp::kLt && op != BinOp::kLe &&
          op != BinOp::kGt && op != BinOp::kGe) {
        continue;
      }
      // Normalize to (col OP constant).
      const Expr* col = conjunct->args[0].get();
      const Expr* bound = conjunct->args[1].get();
      bool flipped = false;
      if (col->kind != ExprKind::kColumnRef) {
        std::swap(col, bound);
        flipped = true;
      }
      if (col->kind != ExprKind::kColumnRef ||
          col->column_index < entry.offset ||
          col->column_index >= entry.offset +
                                   static_cast<int>(entry.schema->size()) ||
          MaxColumnIndex(*bound) >= 0) {
        continue;
      }
      const IndexInfo* index = ctx_.catalog->IndexOnColumn(
          driver.table->name,
          entry.schema
              ->columns[static_cast<size_t>(col->column_index -
                                            entry.offset)]
              .name);
      if (index == nullptr) continue;
      if (driver.native_index != nullptr && driver.native_index != index) {
        continue;  // keep the first usable index
      }
      driver.native_index = index;
      BinOp effective = op;
      if (flipped) {  // constant OP col  ->  col OP' constant
        switch (op) {
          case BinOp::kLt: effective = BinOp::kGt; break;
          case BinOp::kLe: effective = BinOp::kGe; break;
          case BinOp::kGt: effective = BinOp::kLt; break;
          case BinOp::kGe: effective = BinOp::kLe; break;
          default: break;
        }
      }
      switch (effective) {
        case BinOp::kEq:
          driver.range_lower = bound;
          driver.range_upper = bound;
          break;
        case BinOp::kGt:
        case BinOp::kGe:
          if (driver.range_lower == nullptr) driver.range_lower = bound;
          break;
        case BinOp::kLt:
        case BinOp::kLe:
          if (driver.range_upper == nullptr) driver.range_upper = bound;
          break;
        default:
          break;
      }
    }
    if (driver.range_lower == nullptr && driver.range_upper == nullptr) {
      driver.native_index = nullptr;  // unbounded index scan: prefer heap
    }
  }

  for (size_t level = 1; level < sources_.size(); ++level) {
    TableSource& source = sources_[level];
    const BindScope::Entry& entry = scope_.entries[level];
    int lo = entry.offset;
    int hi = entry.offset + static_cast<int>(entry.schema->size());
    for (ExprPtr& conjunct : *conjuncts) {
      if (conjunct == nullptr) continue;
      if (conjunct->kind != ExprKind::kBinary ||
          conjunct->bin_op != BinOp::kEq) {
        continue;
      }
      Expr* lhs = conjunct->args[0].get();
      Expr* rhs = conjunct->args[1].get();
      auto try_pair = [&](Expr* inner, Expr* outer) {
        if (inner->kind != ExprKind::kColumnRef) return false;
        if (inner->column_index < lo || inner->column_index >= hi) {
          return false;
        }
        if (MaxColumnIndex(*outer) >= lo) return false;  // not outer-only
        source.key_expr = outer;
        source.inner_key_column = inner->column_index - lo;
        return true;
      };
      if (try_pair(lhs, rhs) || try_pair(rhs, lhs)) {
        // The probe enforces equality; keep ownership of the outer expr by
        // keeping the conjunct alive in the source.
        source.native_index = ctx_.catalog->IndexOnColumn(
            source.table->name,
            entry.schema->columns[source.inner_key_column].name);
        // Move the conjunct into the source so key_expr stays valid.
        consumed_conjuncts_.push_back(std::move(conjunct));
        break;
      }
    }
  }
  return Status::OK();
}

void SelectExecutor::PlanIndexOnlyAccess() {
  // Mark join sources whose native index contains every referenced column
  // of the table: those are served index-only (covering), with rows
  // synthesized from index keys and no heap fetches.
  std::vector<bool> used(static_cast<size_t>(scope_.total_columns), false);
  std::function<void(const Expr&)> collect = [&](const Expr& e) {
    if (e.kind == ExprKind::kColumnRef && e.column_index >= 0) {
      used[static_cast<size_t>(e.column_index)] = true;
    }
    for (const ExprPtr& arg : e.args) collect(*arg);
  };
  for (const SelectItem& item : items_) collect(*item.expr);
  if (where_ != nullptr) collect(*where_);
  for (const ExprPtr& g : group_by_) collect(*g);
  if (having_ != nullptr) collect(*having_);
  for (const OrderItem& o : order_by_) collect(*o.expr);
  for (const ExprPtr& c : consumed_conjuncts_) {
    if (c != nullptr) collect(*c);
  }
  for (const TableSource& s : sources_) {
    if (s.filter != nullptr) collect(*s.filter);
  }

  for (size_t level = 0; level < sources_.size(); ++level) {
    TableSource& source = sources_[level];
    if (source.native_index == nullptr) continue;
    const BindScope::Entry& entry = scope_.entries[level];
    bool covered = true;
    for (size_t local = 0; local < entry.schema->size() && covered;
         ++local) {
      if (!used[static_cast<size_t>(entry.offset) + local]) continue;
      bool in_index = false;
      for (int idx : source.native_index->column_idx) {
        if (idx == static_cast<int>(local)) {
          in_index = true;
          break;
        }
      }
      covered = in_index;
    }
    source.index_only = covered;
  }
}

Status SelectExecutor::BuildTransientIndex(TableSource* source) {
  // SQLite's "automatic covering index": materialize the inner table into
  // a private B+-tree keyed by the join column. Built with real index
  // machinery so its cost scales like the paper's index-creation bar.
  int64_t start = NowMicros();
  source->transient_env = std::make_unique<storage::InMemoryEnv>();
  RQL_ASSIGN_OR_RETURN(
      source->transient_store,
      storage::PageStore::Open(source->transient_env.get(), "transient"));
  storage::PageStore* store = source->transient_store.get();
  // One WAL batch for the whole build: the store is private and
  // throwaway, so per-write commits would only burn time.
  RQL_RETURN_IF_ERROR(store->BeginBatch());
  Status build_status = [&]() -> Status {
    RQL_ASSIGN_OR_RETURN(source->transient_heap_root,
                         HeapTable::Create(store));
    RQL_ASSIGN_OR_RETURN(source->transient_index_root,
                         BTree::Create(store));
    HeapTable heap(store, source->transient_heap_root);
    BTree tree(store, source->transient_index_root);
    int64_t seq = 0;
    for (auto it = HeapTable::Scan(
             ctx_.reader, source->table->root, ctx_.scan_cache,
             ctx_.stats != nullptr ? &ctx_.stats->scan_cache : nullptr);
         it.Valid(); it.Next()) {
      const Row* cached = it.cached_row();
      Row row;
      if (cached == nullptr) {
        RQL_ASSIGN_OR_RETURN(row, DecodeRow(it.record()));
      }
      const Value& key =
          (cached != nullptr ? *cached : row)[source->inner_key_column];
      if (key.is_null()) continue;  // NULL never matches equality
      RQL_ASSIGN_OR_RETURN(Rid rid, heap.Insert(it.record()));
      RQL_RETURN_IF_ERROR(tree.Insert({key, Value::Integer(seq++)}, rid));
    }
    return Status::OK();
  }();
  if (!build_status.ok()) {
    (void)store->RollbackBatch();
    return build_status;
  }
  RQL_RETURN_IF_ERROR(store->CommitBatch());
  if (ctx_.stats != nullptr) {
    ctx_.stats->index_build_us += NowMicros() - start;
    ctx_.stats->used_transient_index = true;
  }
  if (plan_cache_ != nullptr) {
    size_t level = static_cast<size_t>(source - sources_.data());
    bool known = false;
    for (const PlanCache::TransientSpec& spec :
         plan_cache_->transient_specs) {
      if (spec.level == level) known = true;
    }
    if (!known) {
      plan_cache_->transient_specs.push_back(
          {level, source->table->name, source->inner_key_column});
    }
  }
  return Status::OK();
}

Status SelectExecutor::ScanSource(const RowSink& sink) {
  if (sources_.empty()) {
    Row empty;
    if (where_ != nullptr) {
      EvalContext ectx{&empty, ctx_.functions, nullptr, nullptr, this};
      RQL_ASSIGN_OR_RETURN(Value cond, EvalExpr(*where_, ectx));
      if (!ValueIsTrue(cond)) return Status::OK();
    }
    return sink(empty);
  }
  Row current(static_cast<size_t>(scope_.total_columns));
  return JoinLevel(0, &current, sink);
}

Status SelectExecutor::JoinLevel(size_t level, Row* current,
                                 const RowSink& sink) {
  TableSource& source = sources_[level];
  const BindScope::Entry& entry = scope_.entries[level];
  size_t offset = static_cast<size_t>(entry.offset);
  size_t width = entry.schema->size();
  bool last = level + 1 == sources_.size();

  auto emit_candidate = [&](Row&& table_row) -> Status {
    if (table_row.size() != width) {
      return Status::Corruption("row arity mismatch in table " +
                                source.table->name);
    }
    for (size_t i = 0; i < width; ++i) {
      (*current)[offset + i] = std::move(table_row[i]);
    }
    if (ctx_.stats != nullptr) ++ctx_.stats->rows_scanned;
    if (source.filter != nullptr) {
      EvalContext ectx{current, ctx_.functions, nullptr, nullptr, this};
      RQL_ASSIGN_OR_RETURN(Value cond, EvalExpr(*source.filter, ectx));
      if (!ValueIsTrue(cond)) return Status::OK();
    }
    if (last) {
      if (where_ != nullptr) {
        EvalContext ectx{current, ctx_.functions, nullptr, nullptr, this};
        RQL_ASSIGN_OR_RETURN(Value cond, EvalExpr(*where_, ectx));
        if (!ValueIsTrue(cond)) return Status::OK();
      }
      return sink(*current);
    }
    return JoinLevel(level + 1, current, sink);
  };

  if (level > 0 && source.key_expr != nullptr) {
    EvalContext ectx{current, ctx_.functions, nullptr, nullptr, this};
    RQL_ASSIGN_OR_RETURN(Value key, EvalExpr(*source.key_expr, ectx));
    if (key.is_null()) return Status::OK();

    if (source.native_index != nullptr) {
      if (ctx_.stats != nullptr) ctx_.stats->used_native_index = true;
      Row probe = {key};
      RQL_ASSIGN_OR_RETURN(
          BTree::Iterator it,
          BTree::Seek(ctx_.reader, source.native_index->root, probe));
      for (; it.Valid(); it.Next()) {
        if (it.key().empty() || CompareValues(it.key()[0], key) != 0) break;
        Row row;
        if (source.index_only) {
          // Covering access: synthesize the row from the index key.
          row.assign(width, Value());
          const Row& index_key = it.key();
          const std::vector<int>& cols = source.native_index->column_idx;
          for (size_t p = 0; p < cols.size() && p < index_key.size(); ++p) {
            row[static_cast<size_t>(cols[p])] = index_key[p];
          }
        } else {
          RQL_ASSIGN_OR_RETURN(std::string record,
                               HeapTable::Get(ctx_.reader, it.value()));
          RQL_ASSIGN_OR_RETURN(row, DecodeRow(record));
        }
        RQL_RETURN_IF_ERROR(emit_candidate(std::move(row)));
        if (done_) return Status::OK();
      }
      return it.status();
    }

    // Automatic transient index (SQLite's covering-index behaviour).
    if (source.transient_store == nullptr) {
      RQL_RETURN_IF_ERROR(BuildTransientIndex(&source));
    }
    storage::PageStore* store = source.transient_store.get();
    Row probe = {key};
    RQL_ASSIGN_OR_RETURN(
        BTree::Iterator it,
        BTree::Seek(store, source.transient_index_root, probe));
    for (; it.Valid(); it.Next()) {
      if (it.key().empty() || CompareValues(it.key()[0], key) != 0) break;
      RQL_ASSIGN_OR_RETURN(std::string record,
                           HeapTable::Get(store, it.value()));
      RQL_ASSIGN_OR_RETURN(Row row, DecodeRow(record));
      RQL_RETURN_IF_ERROR(emit_candidate(std::move(row)));
      if (done_) return Status::OK();
    }
    return it.status();
  }

  if (level == 0 && source.native_index != nullptr &&
      (source.range_lower != nullptr || source.range_upper != nullptr)) {
    // Index (range) scan driving the query.
    if (ctx_.stats != nullptr) ctx_.stats->used_native_index = true;
    EvalContext ectx{current, ctx_.functions, nullptr, nullptr, this};
    Value lower, upper;
    bool has_lower = source.range_lower != nullptr;
    bool has_upper = source.range_upper != nullptr;
    if (has_lower) {
      RQL_ASSIGN_OR_RETURN(lower, EvalExpr(*source.range_lower, ectx));
      if (lower.is_null()) return Status::OK();  // NULL bound matches nothing
    }
    if (has_upper) {
      RQL_ASSIGN_OR_RETURN(upper, EvalExpr(*source.range_upper, ectx));
      if (upper.is_null()) return Status::OK();
    }
    Result<BTree::Iterator> it =
        has_lower
            ? BTree::Seek(ctx_.reader, source.native_index->root, {lower})
            : BTree::SeekFirst(ctx_.reader, source.native_index->root);
    RQL_RETURN_IF_ERROR(it.status());
    for (; it->Valid(); it->Next()) {
      if (has_upper && !it->key().empty() &&
          CompareValues(it->key()[0], upper) > 0) {
        break;
      }
      Row row;
      if (source.index_only) {
        row.assign(width, Value());
        const Row& index_key = it->key();
        const std::vector<int>& cols = source.native_index->column_idx;
        for (size_t p = 0; p < cols.size() && p < index_key.size(); ++p) {
          row[static_cast<size_t>(cols[p])] = index_key[p];
        }
      } else {
        RQL_ASSIGN_OR_RETURN(std::string record,
                             HeapTable::Get(ctx_.reader, it->value()));
        RQL_ASSIGN_OR_RETURN(row, DecodeRow(record));
      }
      RQL_RETURN_IF_ERROR(emit_candidate(std::move(row)));
      if (done_) return Status::OK();
    }
    return it->status();
  }

  // Sequential scan. Pages the reader versions (archived snapshot pages)
  // come pre-decoded from the scan cache; copying the cached row replaces
  // the per-row DecodeRow parse.
  auto it = HeapTable::Scan(
      ctx_.reader, source.table->root, ctx_.scan_cache,
      ctx_.stats != nullptr ? &ctx_.stats->scan_cache : nullptr);
  for (; it.Valid(); it.Next()) {
    Row row;
    if (const Row* cached = it.cached_row()) {
      row = *cached;
    } else {
      RQL_ASSIGN_OR_RETURN(row, DecodeRow(it.record()));
    }
    RQL_RETURN_IF_ERROR(emit_candidate(std::move(row)));
    if (done_) return Status::OK();
  }
  return it.status();
}

bool SelectExecutor::CanUseBatchScan() const {
  if (!ctx_.batch_execution) return false;
  if (sources_.size() != 1) return false;
  const TableSource& source = sources_[0];
  // Only the plain sequential scan batches; index range scans and join
  // probes keep the row path (their per-row heap fetches dominate, and
  // order/short-circuit semantics stay trivially identical).
  if (source.key_expr != nullptr) return false;
  if (source.native_index != nullptr) return false;
  return true;
}

Status SelectExecutor::ApplyBatchFilter(const Expr* pred, bool vectorized,
                                        RowBatch* batch) {
  if (pred == nullptr || batch->selection.empty()) return Status::OK();
  if (vectorized) {
    return FilterBatch(*pred, batch->rows, &batch->selection);
  }
  if (ctx_.stats != nullptr) {
    ctx_.stats->batch_fallback_rows +=
        static_cast<int64_t>(batch->selection.size());
  }
  size_t keep = 0;
  for (uint32_t idx : batch->selection) {
    const Row& row = batch->rows[idx];
    EvalContext ectx{&row, ctx_.functions, nullptr, nullptr, this};
    RQL_ASSIGN_OR_RETURN(Value cond, EvalExpr(*pred, ectx));
    if (ValueIsTrue(cond)) batch->selection[keep++] = idx;
  }
  batch->selection.resize(keep);
  return Status::OK();
}

Status SelectExecutor::ScanBatched(
    const std::function<Status(RowBatch&)>& consume) {
  TableSource& source = sources_[0];
  size_t width = scope_.entries[0].schema->size();
  bool filter_vec =
      source.filter != nullptr && EvalBatchSupported(*source.filter);
  // With one source, predicate pushdown leaves WHERE empty; handled
  // anyway so the batch path never silently drops a residual predicate.
  bool where_vec = where_ != nullptr && EvalBatchSupported(*where_);
  auto it = HeapTable::ScanBatches(
      ctx_.reader, source.table->root, ctx_.scan_cache,
      ctx_.stats != nullptr ? &ctx_.stats->scan_cache : nullptr);
  for (; it.Valid(); it.Next()) {
    RowBatch& batch = it.batch();
    for (uint32_t i = 0; i < batch.size; ++i) {
      if (batch.rows[i].size() != width) {
        return Status::Corruption("row arity mismatch in table " +
                                  source.table->name);
      }
    }
    batch.selection.resize(batch.size);
    for (uint32_t i = 0; i < batch.size; ++i) batch.selection[i] = i;
    if (ctx_.stats != nullptr) {
      ++ctx_.stats->batches_scanned;
      ctx_.stats->batch_rows += batch.size;
      // The row path counts scanned rows one emit_candidate at a time;
      // page granularity only diverges when LIMIT stops a scan mid-page.
      ctx_.stats->rows_scanned += batch.size;
    }
    if (ctx_.batch_size_hist != nullptr) {
      ctx_.batch_size_hist->ObserveUs(batch.size);
    }
    RQL_RETURN_IF_ERROR(
        ApplyBatchFilter(source.filter.get(), filter_vec, &batch));
    RQL_RETURN_IF_ERROR(ApplyBatchFilter(where_.get(), where_vec, &batch));
    if (batch.selection.empty()) continue;
    RQL_RETURN_IF_ERROR(consume(batch));
    if (done_) return Status::OK();
  }
  return it.status();
}

Result<Row> SelectExecutor::ProjectRow(const EvalContext& ectx,
                                       Row* sort_key) {
  Row out;
  out.reserve(items_.size());
  for (const SelectItem& item : items_) {
    RQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, ectx));
    out.push_back(std::move(v));
  }
  if (need_sort_) {
    sort_key->clear();
    for (const OrderItem& o : order_by_) {
      if (o.expr->kind == ExprKind::kLiteral &&
          o.expr->literal.type() == ValueType::kInteger) {
        int64_t pos = o.expr->literal.integer();
        if (pos < 1 || pos > static_cast<int64_t>(out.size())) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
        sort_key->push_back(out[pos - 1]);
        continue;
      }
      if (o.expr->kind == ExprKind::kColumnRef && o.expr->table.empty() &&
          o.expr->column_index < 0) {
        // Alias reference.
        bool matched = false;
        for (size_t i = 0; i < items_.size(); ++i) {
          if (IdentEquals(columns_[i], o.expr->name)) {
            sort_key->push_back(out[i]);
            matched = true;
            break;
          }
        }
        if (matched) continue;
        return Status::InvalidArgument("unknown ORDER BY column: " +
                                       o.expr->name);
      }
      RQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*o.expr, ectx));
      sort_key->push_back(std::move(v));
    }
  }
  return out;
}

Status SelectExecutor::Emit(Row row, Row sort_key, const RowSink& sink) {
  if (stmt_->distinct) {
    std::string key = EncodeRow(row);
    if (!distinct_seen_.insert(std::move(key)).second) return Status::OK();
  }
  if (need_sort_) {
    staged_.emplace_back(std::move(sort_key), std::move(row));
    return Status::OK();
  }
  if (stmt_->limit >= 0 && emitted_ >= stmt_->limit) {
    done_ = true;
    return Status::OK();
  }
  ++emitted_;
  if (ctx_.stats != nullptr) ++ctx_.stats->rows_output;
  Status s = sink(row);
  if (s.ok() && stmt_->limit >= 0 && emitted_ >= stmt_->limit) done_ = true;
  return s;
}

Status SelectExecutor::Finish(const RowSink& sink) {
  if (!need_sort_) return Status::OK();
  std::stable_sort(staged_.begin(), staged_.end(),
                   [this](const auto& a, const auto& b) {
                     for (size_t i = 0; i < order_by_.size(); ++i) {
                       int c = CompareValues(a.first[i], b.first[i]);
                       if (c != 0) return order_by_[i].desc ? c > 0 : c < 0;
                     }
                     return false;
                   });
  int64_t limit = stmt_->limit >= 0 ? stmt_->limit
                                    : static_cast<int64_t>(staged_.size());
  for (const auto& [key, row] : staged_) {
    if (limit-- <= 0) break;
    if (ctx_.stats != nullptr) ++ctx_.stats->rows_output;
    RQL_RETURN_IF_ERROR(sink(row));
  }
  return Status::OK();
}

Status SelectExecutor::RunPlain(const RowSink& sink) {
  if (batch_scan_) {
    RQL_RETURN_IF_ERROR(ScanBatched([&](RowBatch& batch) -> Status {
      for (uint32_t idx : batch.selection) {
        const Row& input = batch.rows[idx];
        EvalContext ectx{&input, ctx_.functions, nullptr, nullptr, this};
        Row sort_key;
        RQL_ASSIGN_OR_RETURN(Row out, ProjectRow(ectx, &sort_key));
        RQL_RETURN_IF_ERROR(Emit(std::move(out), std::move(sort_key), sink));
        if (done_) return Status::OK();
      }
      return Status::OK();
    }));
    return Finish(sink);
  }
  RQL_RETURN_IF_ERROR(ScanSource([&](const Row& input) -> Status {
    EvalContext ectx{&input, ctx_.functions, nullptr, nullptr, this};
    Row sort_key;
    RQL_ASSIGN_OR_RETURN(Row out, ProjectRow(ectx, &sort_key));
    return Emit(std::move(out), std::move(sort_key), sink);
  }));
  return Finish(sink);
}

Status SelectExecutor::RunAggregation(const RowSink& sink) {
  struct Group {
    Row repr;
    std::vector<AggAccum> accums;
  };
  // Groups are keyed by the evaluated key row itself, hashed directly —
  // the same identity the former EncodeRow string keys had (type tag plus
  // exact bit content, so 1 and 1.0 group apart and doubles compare
  // bitwise) without building a key string per input row.
  struct GroupKeyHash {
    size_t operator()(const Row& row) const {
      uint64_t h = 0xcbf29ce484222325ull;
      auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
      };
      for (const Value& v : row) {
        mix(static_cast<uint64_t>(v.type()));
        switch (v.type()) {
          case ValueType::kNull:
            break;
          case ValueType::kInteger:
            mix(static_cast<uint64_t>(v.integer()));
            break;
          case ValueType::kReal: {
            uint64_t bits;
            double d = v.real();
            std::memcpy(&bits, &d, sizeof(bits));
            mix(bits);
            break;
          }
          case ValueType::kText:
            mix(std::hash<std::string>{}(v.text()));
            break;
        }
      }
      return static_cast<size_t>(h);
    }
  };
  struct GroupKeyEq {
    bool operator()(const Row& a, const Row& b) const {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].type() != b[i].type()) return false;
        switch (a[i].type()) {
          case ValueType::kNull:
            break;
          case ValueType::kInteger:
            if (a[i].integer() != b[i].integer()) return false;
            break;
          case ValueType::kReal: {
            uint64_t abits, bbits;
            double ad = a[i].real(), bd = b[i].real();
            std::memcpy(&abits, &ad, sizeof(abits));
            std::memcpy(&bbits, &bd, sizeof(bbits));
            if (abits != bbits) return false;
            break;
          }
          case ValueType::kText:
            if (a[i].text() != b[i].text()) return false;
            break;
        }
      }
      return true;
    }
  };
  std::unordered_map<Row, Group, GroupKeyHash, GroupKeyEq> groups;
  // Nodes are stable in an unordered_map, so first-appearance order is kept
  // as pointers into the map.
  std::vector<Group*> group_order;

  std::vector<AggKind> kinds;
  kinds.reserve(agg_nodes_.size());
  for (Expr* node : agg_nodes_) {
    RQL_ASSIGN_OR_RETURN(AggKind kind, AggKindOf(node->name));
    kinds.push_back(kind);
  }

  if (batch_scan_) {
    // Per-node batch plan, decided once per statement: COUNT(*) folds
    // straight off the selection size; vectorizable arguments are
    // batch-evaluated and then folded (single group, non-distinct) or fed
    // value by value into the shared accumulator transition; everything
    // else runs the scalar fallback.
    struct NodePlan {
      bool count_star = false;
      bool vec_arg = false;
    };
    std::vector<NodePlan> plans(agg_nodes_.size());
    for (size_t i = 0; i < agg_nodes_.size(); ++i) {
      const Expr& node = *agg_nodes_[i];
      bool is_star =
          !node.args.empty() && node.args[0]->kind == ExprKind::kStar;
      plans[i].count_star =
          kinds[i] == AggKind::kCount && (node.args.empty() || is_star);
      plans[i].vec_arg = !plans[i].count_star && !node.args.empty() &&
                         EvalBatchSupported(*node.args[0]);
    }
    std::vector<bool> key_vec(group_by_.size());
    for (size_t k = 0; k < group_by_.size(); ++k) {
      key_vec[k] = EvalBatchSupported(*group_by_[k]);
    }
    std::vector<Value> scratch;
    std::vector<std::vector<Value>> key_cols(group_by_.size());
    std::vector<Group*> row_groups;
    RQL_RETURN_IF_ERROR(ScanBatched([&](RowBatch& batch) -> Status {
      const uint32_t* sel = batch.selection.data();
      size_t n = batch.selection.size();
      // Resolve every selected row's group first (one shared group
      // without GROUP BY), creating groups in first-appearance order —
      // the same order the row path produces.
      row_groups.assign(n, nullptr);
      if (group_by_.empty()) {
        auto [it, inserted] = groups.try_emplace(Row());
        if (inserted) {
          it->second.repr = batch.rows[sel[0]];
          it->second.accums.resize(agg_nodes_.size());
          group_order.push_back(&it->second);
        }
        for (size_t j = 0; j < n; ++j) row_groups[j] = &it->second;
      } else {
        for (size_t k = 0; k < group_by_.size(); ++k) {
          if (key_vec[k]) {
            RQL_RETURN_IF_ERROR(EvalBatch(*group_by_[k], batch.rows, sel, n,
                                          &key_cols[k]));
          } else {
            if (ctx_.stats != nullptr) {
              ctx_.stats->batch_fallback_rows += static_cast<int64_t>(n);
            }
            key_cols[k].resize(n);
            for (size_t j = 0; j < n; ++j) {
              const Row& row = batch.rows[sel[j]];
              EvalContext ectx{&row, ctx_.functions, nullptr, nullptr,
                               this};
              RQL_ASSIGN_OR_RETURN(key_cols[k][j],
                                   EvalExpr(*group_by_[k], ectx));
            }
          }
        }
        for (size_t j = 0; j < n; ++j) {
          Row key;
          key.reserve(group_by_.size());
          for (size_t k = 0; k < group_by_.size(); ++k) {
            key.push_back(key_cols[k][j]);
          }
          auto [it, inserted] = groups.try_emplace(std::move(key));
          if (inserted) {
            it->second.repr = batch.rows[sel[j]];
            it->second.accums.resize(agg_nodes_.size());
            group_order.push_back(&it->second);
          }
          row_groups[j] = &it->second;
        }
      }
      // Aggregate transitions, one node at a time across the batch.
      for (size_t i = 0; i < agg_nodes_.size(); ++i) {
        const Expr& node = *agg_nodes_[i];
        if (plans[i].count_star) {
          for (size_t j = 0; j < n; ++j) ++row_groups[j]->accums[i].count;
          continue;
        }
        if (node.args.empty()) {
          return Status::InvalidArgument("aggregate requires an argument");
        }
        if (!plans[i].vec_arg) {
          if (ctx_.stats != nullptr) {
            ctx_.stats->batch_fallback_rows += static_cast<int64_t>(n);
          }
          for (size_t j = 0; j < n; ++j) {
            const Row& row = batch.rows[sel[j]];
            EvalContext ectx{&row, ctx_.functions, nullptr, nullptr, this};
            RQL_RETURN_IF_ERROR(UpdateAccum(kinds[i], node, ectx,
                                            &row_groups[j]->accums[i]));
          }
          continue;
        }
        bool column_arg = node.args[0]->kind == ExprKind::kColumnRef;
        if (!column_arg) {
          RQL_RETURN_IF_ERROR(
              EvalBatch(*node.args[0], batch.rows, sel, n, &scratch));
        }
        if (node.distinct_arg || !group_by_.empty()) {
          // Scattered groups or distinct tracking: per-value transition
          // over the evaluated argument.
          for (size_t j = 0; j < n; ++j) {
            const Value& arg = column_arg
                                   ? batch.rows[sel[j]][static_cast<size_t>(
                                         node.args[0]->column_index)]
                                   : scratch[j];
            RQL_RETURN_IF_ERROR(UpdateAccumValue(kinds[i],
                                                 node.distinct_arg, arg,
                                                 &row_groups[j]->accums[i]));
          }
          continue;
        }
        // Single group, non-distinct: fold the whole selection in one
        // kernel call — straight off the page for column arguments.
        AggAccum* accum = &row_groups[0]->accums[i];
        rql::batch::FoldInput in =
            column_arg ? rql::batch::FoldInput::Column(
                             batch.rows, sel, n, node.args[0]->column_index)
                       : rql::batch::FoldInput::Dense(scratch.data(), n);
        switch (kinds[i]) {
          case AggKind::kCount:
            rql::batch::FoldCount(in, &accum->count);
            break;
          case AggKind::kSum:
          case AggKind::kAvg:
          case AggKind::kTotal:
            RQL_RETURN_IF_ERROR(rql::batch::FoldSum(
                in, &accum->count, &accum->has_value, &accum->real_sum,
                &accum->int_sum, &accum->int_only));
            break;
          case AggKind::kMin:
          case AggKind::kMax:
            rql::batch::FoldExtreme(kinds[i] == AggKind::kMin, in,
                                    &accum->count, &accum->has_value,
                                    &accum->extreme);
            break;
        }
      }
      return Status::OK();
    }));
  } else {
    RQL_RETURN_IF_ERROR(ScanSource([&](const Row& input) -> Status {
      EvalContext ectx{&input, ctx_.functions, nullptr, nullptr, this};
      Row key;
      if (!group_by_.empty()) {
        key.reserve(group_by_.size());
        for (const ExprPtr& g : group_by_) {
          RQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, ectx));
          key.push_back(std::move(v));
        }
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      if (inserted) {
        it->second.repr = input;
        it->second.accums.resize(agg_nodes_.size());
        group_order.push_back(&it->second);
      }
      for (size_t i = 0; i < agg_nodes_.size(); ++i) {
        RQL_RETURN_IF_ERROR(UpdateAccum(kinds[i], *agg_nodes_[i], ectx,
                                        &it->second.accums[i]));
      }
      return Status::OK();
    }));
  }

  // SQL semantics: an aggregate query with no GROUP BY yields exactly one
  // row even over empty input.
  if (group_by_.empty() && groups.empty()) {
    Group& g = groups[Row()];
    g.repr = Row(static_cast<size_t>(scope_.total_columns));
    g.accums.resize(agg_nodes_.size());
    group_order.push_back(&g);
  }

  std::vector<const Expr*> agg_nodes_const(agg_nodes_.begin(),
                                           agg_nodes_.end());
  for (Group* group_entry : group_order) {
    Group& group = *group_entry;
    std::vector<Value> agg_values;
    agg_values.reserve(agg_nodes_.size());
    for (size_t i = 0; i < agg_nodes_.size(); ++i) {
      agg_values.push_back(FinalizeAccum(kinds[i], group.accums[i]));
    }
    EvalContext ectx{&group.repr, ctx_.functions, &agg_nodes_const,
                     &agg_values, this};
    if (having_ != nullptr) {
      RQL_ASSIGN_OR_RETURN(Value cond, EvalExpr(*having_, ectx));
      if (!ValueIsTrue(cond)) continue;
    }
    Row sort_key;
    RQL_ASSIGN_OR_RETURN(Row out, ProjectRow(ectx, &sort_key));
    RQL_RETURN_IF_ERROR(Emit(std::move(out), std::move(sort_key), sink));
    if (done_) break;
  }
  return Finish(sink);
}

Status SelectExecutor::Run(const RowSink& sink) {
  batch_scan_ = CanUseBatchScan();
  return aggregated_ ? RunAggregation(sink) : RunPlain(sink);
}

std::vector<std::string> SelectExecutor::DescribePlan() const {
  std::vector<std::string> lines;
  if (sources_.empty()) {
    lines.push_back("CONSTANT ROW");
  }
  for (size_t level = 0; level < sources_.size(); ++level) {
    const TableSource& source = sources_[level];
    std::string line;
    if (level > 0 && source.key_expr != nullptr) {
      if (source.native_index != nullptr) {
        line = "SEARCH " + source.table->name + " USING " +
               (source.index_only ? "COVERING INDEX " : "INDEX ") +
               source.native_index->name + " (" +
               source.native_index->columns[0] + "=?)";
      } else {
        line = "SEARCH " + source.table->name +
               " USING AUTOMATIC TRANSIENT INDEX (" +
               source.table->schema
                   .columns[static_cast<size_t>(source.inner_key_column)]
                   .name +
               "=?)";
      }
    } else if (level > 0) {
      line = "SCAN " + source.table->name + " (nested loop)";
    } else if (source.native_index != nullptr &&
               (source.range_lower != nullptr ||
                source.range_upper != nullptr)) {
      line = "SEARCH " + source.table->name + " USING " +
             (source.index_only ? "COVERING INDEX " : "INDEX ") +
             source.native_index->name + " (" +
             source.native_index->columns[0] +
             (source.range_lower == source.range_upper ? "=?" : " range)");
      if (source.range_lower == source.range_upper) line += ")";
    } else {
      line = "SCAN " + source.table->name;
    }
    if (!IdentEquals(source.alias, source.table->name)) {
      line += " AS " + source.alias;
    }
    if (source.filter != nullptr) line += " [filter]";
    lines.push_back(std::move(line));
  }
  if (where_ != nullptr) lines.push_back("FILTER (residual)");
  if (aggregated_) {
    lines.push_back(group_by_.empty()
                        ? "AGGREGATE"
                        : "GROUP BY (" + std::to_string(group_by_.size()) +
                              " keys, " + std::to_string(agg_nodes_.size()) +
                              " aggregates)");
  }
  if (having_ != nullptr) lines.push_back("HAVING");
  if (stmt_->distinct) lines.push_back("DISTINCT");
  if (!order_by_.empty()) {
    lines.push_back("SORT (" + std::to_string(order_by_.size()) + " keys)");
  }
  if (stmt_->limit >= 0) {
    lines.push_back("LIMIT " + std::to_string(stmt_->limit));
  }
  return lines;
}

Result<const std::vector<Row>*> SelectExecutor::RunSubquery(
    const Expr& expr) {
  if (expr.kind != ExprKind::kSubquery || expr.subquery == nullptr) {
    return Status::Internal("RunSubquery on a non-subquery expression");
  }
  auto it = subquery_cache_.find(&expr);
  if (it != subquery_cache_.end()) {
    return static_cast<const std::vector<Row>*>(&it->second);
  }
  if (subquery_depth_ >= 8) {
    return Status::InvalidArgument("subqueries nested too deeply");
  }
  if (expr.subquery->as_of != 0 || expr.subquery->as_of_param != nullptr) {
    return Status::NotSupported(
        "AS OF inside a subquery is not supported; apply it to the outer "
        "statement");
  }
  RQL_ASSIGN_OR_RETURN(std::unique_ptr<SelectExecutor> exec,
                       SelectExecutor::Prepare(expr.subquery.get(), ctx_));
  exec->subquery_depth_ = subquery_depth_ + 1;
  std::vector<Row> rows;
  RQL_RETURN_IF_ERROR(exec->Run([&rows](const Row& row) {
    rows.push_back(row);
    return Status::OK();
  }));
  auto [pos, inserted] = subquery_cache_.emplace(&expr, std::move(rows));
  return static_cast<const std::vector<Row>*>(&pos->second);
}

}  // namespace rql::sql
