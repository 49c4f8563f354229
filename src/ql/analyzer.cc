#include "ql/analyzer.h"

#include <algorithm>
#include <functional>

namespace minihive::ql {

namespace {

using exec::AggDesc;
using exec::AggKind;
using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;
using exec::MakeOp;
using exec::OpDesc;
using exec::OpDescPtr;
using exec::OpKind;

struct ColInfo {
  std::string qualifier;
  std::string name;
  TypeKind type = TypeKind::kBigInt;
  bool hidden = false;  // Join-key prefix columns: unreachable by name.
};

struct SubPlan {
  OpDescPtr tail;
  std::vector<ColInfo> columns;
  std::vector<OpDescPtr> roots;
  int width() const { return static_cast<int>(columns.size()); }
};

/// Column reference used by the analyzer's expression resolution.
class Resolver {
 public:
  explicit Resolver(const std::vector<ColInfo>* columns) : columns_(columns) {}

  Result<int> Find(const std::string& qualifier,
                   const std::string& name) const {
    int found = -1;
    for (size_t i = 0; i < columns_->size(); ++i) {
      const ColInfo& col = (*columns_)[i];
      if (col.hidden) continue;
      if (col.name != name) continue;
      if (!qualifier.empty() && col.qualifier != qualifier) continue;
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column: " + name);
      }
      found = static_cast<int>(i);
    }
    if (found < 0) {
      return Status::InvalidArgument(
          "unknown column: " + (qualifier.empty() ? name
                                                  : qualifier + "." + name));
    }
    return found;
  }

  Result<ExprPtr> Resolve(const AstExpr& ast) const {
    switch (ast.kind) {
      case AstExprKind::kColumn: {
        MINIHIVE_ASSIGN_OR_RETURN(int index, Find(ast.qualifier, ast.name));
        return Expr::Column(index, (*columns_)[index].type);
      }
      case AstExprKind::kLiteral: {
        TypeKind type = ast.literal.is_double()
                            ? TypeKind::kDouble
                            : (ast.literal.is_string() ? TypeKind::kString
                                                       : TypeKind::kBigInt);
        return Expr::Literal(ast.literal, type);
      }
      case AstExprKind::kBinary: {
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr left, Resolve(*ast.children[0]));
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr right, Resolve(*ast.children[1]));
        static const std::pair<const char*, ExprKind> kOps[] = {
            {"+", ExprKind::kAdd},   {"-", ExprKind::kSub},
            {"*", ExprKind::kMul},   {"/", ExprKind::kDiv},
            {"=", ExprKind::kEq},    {"!=", ExprKind::kNe},
            {"<", ExprKind::kLt},    {"<=", ExprKind::kLe},
            {">", ExprKind::kGt},    {">=", ExprKind::kGe},
            {"AND", ExprKind::kAnd}, {"OR", ExprKind::kOr}};
        for (const auto& [text, kind] : kOps) {
          if (ast.op == text) {
            return Expr::Binary(kind, std::move(left), std::move(right));
          }
        }
        return Status::InvalidArgument("unknown operator: " + ast.op);
      }
      case AstExprKind::kNot: {
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr child, Resolve(*ast.children[0]));
        return Expr::Not(std::move(child));
      }
      case AstExprKind::kIsNull: {
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr child, Resolve(*ast.children[0]));
        return Expr::IsNull(std::move(child), ast.negated);
      }
      case AstExprKind::kBetween: {
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr value, Resolve(*ast.children[0]));
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr low, Resolve(*ast.children[1]));
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr high, Resolve(*ast.children[2]));
        ExprPtr between =
            Expr::Between(std::move(value), std::move(low), std::move(high));
        return ast.negated ? Expr::Not(std::move(between)) : between;
      }
      case AstExprKind::kIn: {
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr value, Resolve(*ast.children[0]));
        std::vector<ExprPtr> list;
        for (size_t i = 1; i < ast.children.size(); ++i) {
          MINIHIVE_ASSIGN_OR_RETURN(ExprPtr item, Resolve(*ast.children[i]));
          list.push_back(std::move(item));
        }
        ExprPtr in = Expr::In(std::move(value), std::move(list));
        return ast.negated ? Expr::Not(std::move(in)) : in;
      }
      case AstExprKind::kFunction:
        return Status::InvalidArgument(
            "aggregate function not allowed in this context: " +
            ast.ToString());
    }
    return Status::Internal("unreachable");
  }

 private:
  const std::vector<ColInfo>* columns_;
};

/// Splits an AND tree into conjuncts.
void CollectConjuncts(const AstExprPtr& e, std::vector<AstExprPtr>* out) {
  if (e->kind == AstExprKind::kBinary && e->op == "AND") {
    CollectConjuncts(e->children[0], out);
    CollectConjuncts(e->children[1], out);
  } else {
    out->push_back(e);
  }
}

bool ContainsAggregate(const AstExpr& ast) {
  if (ast.kind == AstExprKind::kFunction) return true;
  for (const AstExprPtr& child : ast.children) {
    if (ContainsAggregate(*child)) return true;
  }
  return false;
}

Result<AggKind> ToAggKind(const std::string& function, bool star) {
  if (function == "COUNT") return star ? AggKind::kCountStar : AggKind::kCount;
  if (function == "SUM") return AggKind::kSum;
  if (function == "AVG") return AggKind::kAvg;
  if (function == "MIN") return AggKind::kMin;
  if (function == "MAX") return AggKind::kMax;
  return Status::InvalidArgument("unknown aggregate: " + function);
}

class QueryPlanner {
 public:
  explicit QueryPlanner(const Catalog* catalog) : catalog_(catalog) {}

  /// Plans one (sub)query; output columns carry `exposed_alias` as their
  /// qualifier when non-empty (FROM-subquery case).
  Result<SubPlan> PlanQuery(const AstQuery& query,
                            const std::string& exposed_alias,
                            std::vector<std::string>* out_names,
                            std::vector<bool>* order_ascending);

 private:
  Result<SubPlan> PlanTableRef(const AstTableRef& ref);
  Result<SubPlan> PlanJoin(SubPlan left, const AstJoin& join);
  Status AddNotNullKeyFilter(SubPlan* side, const std::vector<ExprPtr>& keys);

  const Catalog* catalog_;
};

Result<SubPlan> QueryPlanner::PlanTableRef(const AstTableRef& ref) {
  if (ref.subquery != nullptr) {
    std::vector<std::string> names;
    return PlanQuery(*ref.subquery, ref.alias, &names, nullptr);
  }
  MINIHIVE_ASSIGN_OR_RETURN(const TableDesc* table,
                            catalog_->GetTable(ref.table));
  OpDescPtr scan = MakeOp(OpKind::kTableScan);
  scan->table_name = ref.table;
  scan->table_width = static_cast<int>(table->schema->children().size());
  scan->output_width = scan->table_width;
  SubPlan plan;
  plan.tail = scan;
  plan.roots.push_back(scan);
  const auto& names = table->schema->field_names();
  const auto& types = table->schema->children();
  for (size_t i = 0; i < names.size(); ++i) {
    plan.columns.push_back({ref.alias, names[i], types[i]->kind(), false});
  }
  return plan;
}

Status QueryPlanner::AddNotNullKeyFilter(SubPlan* side,
                                         const std::vector<ExprPtr>& keys) {
  ExprPtr pred;
  for (const ExprPtr& key : keys) {
    ExprPtr not_null = Expr::IsNull(key, /*negated=*/true);
    pred = pred == nullptr
               ? not_null
               : Expr::Binary(ExprKind::kAnd, pred, not_null);
  }
  if (pred == nullptr) return Status::OK();
  OpDescPtr filter = MakeOp(OpKind::kFilter);
  filter->predicate = std::move(pred);
  filter->output_width = side->width();
  OpDesc::Connect(side->tail, filter);
  side->tail = filter;
  return Status::OK();
}

Result<SubPlan> QueryPlanner::PlanJoin(SubPlan left, const AstJoin& join) {
  MINIHIVE_ASSIGN_OR_RETURN(SubPlan right, PlanTableRef(join.right));
  Resolver left_resolver(&left.columns);
  Resolver right_resolver(&right.columns);

  // Decompose the ON condition into equi-key pairs and residuals.
  std::vector<AstExprPtr> conjuncts;
  CollectConjuncts(join.condition, &conjuncts);
  std::vector<ExprPtr> left_keys, right_keys;
  std::vector<AstExprPtr> residuals;
  for (const AstExprPtr& c : conjuncts) {
    bool is_equi = false;
    if (c->kind == AstExprKind::kBinary && c->op == "=") {
      // Try left=right and right=left orientations.
      for (int orientation = 0; orientation < 2 && !is_equi; ++orientation) {
        const AstExpr& a = *c->children[orientation];
        const AstExpr& b = *c->children[1 - orientation];
        auto ra = left_resolver.Resolve(a);
        auto rb = right_resolver.Resolve(b);
        if (ra.ok() && rb.ok()) {
          left_keys.push_back(*ra);
          right_keys.push_back(*rb);
          is_equi = true;
        }
      }
    }
    if (!is_equi) residuals.push_back(c);
  }
  if (left_keys.empty()) {
    return Status::NotImplemented(
        "join requires at least one equi-condition: " +
        join.condition->ToString());
  }

  // Inner sides drop NULL join keys (they can never match); the preserved
  // side of a LEFT OUTER join keeps them.
  if (!join.left_outer) {
    MINIHIVE_RETURN_IF_ERROR(AddNotNullKeyFilter(&left, left_keys));
  }
  MINIHIVE_RETURN_IF_ERROR(AddNotNullKeyFilter(&right, right_keys));

  auto make_rs = [](SubPlan* side, std::vector<ExprPtr> keys, int tag) {
    OpDescPtr rs = MakeOp(OpKind::kReduceSink);
    rs->sink_keys = std::move(keys);
    for (int i = 0; i < side->width(); ++i) {
      rs->sink_values.push_back(
          Expr::Column(i, side->columns[i].type));
    }
    rs->sink_tag = tag;
    rs->sink_num_reducers = 0;  // Use the session default.
    rs->output_width =
        static_cast<int>(rs->sink_keys.size() + rs->sink_values.size());
    OpDesc::Connect(side->tail, rs);
    return rs;
  };
  int key_width = static_cast<int>(left_keys.size());
  OpDescPtr rs_left = make_rs(&left, left_keys, 0);
  OpDescPtr rs_right = make_rs(&right, right_keys, 1);

  OpDescPtr join_op = MakeOp(OpKind::kJoin);
  join_op->join_num_inputs = 2;
  join_op->join_key_width = key_width;
  join_op->join_value_widths = {left.width(), right.width()};
  join_op->join_sides = {exec::JoinSideKind::kInner,
                         join.left_outer ? exec::JoinSideKind::kLeftOuter
                                         : exec::JoinSideKind::kInner};
  OpDesc::Connect(rs_left, join_op);
  OpDesc::Connect(rs_right, join_op);

  SubPlan result;
  result.tail = join_op;
  for (int i = 0; i < key_width; ++i) {
    result.columns.push_back({"", "", left_keys[i]->result_type(), true});
  }
  result.columns.insert(result.columns.end(), left.columns.begin(),
                        left.columns.end());
  result.columns.insert(result.columns.end(), right.columns.begin(),
                        right.columns.end());
  join_op->output_width = result.width();
  result.roots = std::move(left.roots);
  result.roots.insert(result.roots.end(), right.roots.begin(),
                      right.roots.end());

  // Residual ON conditions: a conjunct referencing only one side filters
  // that side *before* the join (required for LEFT OUTER correctness —
  // padded rows must not be re-filtered); cross-side conjuncts become a
  // join residual (inner joins only).
  if (!residuals.empty()) {
    ExprPtr cross_side;
    Resolver combined(&result.columns);
    for (const AstExprPtr& r : residuals) {
      auto left_only = left_resolver.Resolve(*r);
      auto right_only = right_resolver.Resolve(*r);
      if (right_only.ok()) {
        // Insert before the right side's ReduceSink.
        OpDescPtr filter = MakeOp(OpKind::kFilter);
        filter->predicate = *right_only;
        filter->output_width = right.width();
        OpDesc* rs_parent = rs_right->parents[0];
        filter->parents.push_back(rs_parent);
        for (OpDescPtr& child : rs_parent->children) {
          if (child == rs_right) child = filter;
        }
        rs_right->parents[0] = filter.get();
        filter->children.push_back(rs_right);
      } else if (left_only.ok() && !join.left_outer) {
        OpDescPtr filter = MakeOp(OpKind::kFilter);
        filter->predicate = *left_only;
        filter->output_width = left.width();
        OpDesc* rs_parent = rs_left->parents[0];
        filter->parents.push_back(rs_parent);
        for (OpDescPtr& child : rs_parent->children) {
          if (child == rs_left) child = filter;
        }
        rs_left->parents[0] = filter.get();
        filter->children.push_back(rs_left);
      } else {
        if (join.left_outer) {
          return Status::NotImplemented(
              "cross-side residual on LEFT OUTER join: " + r->ToString());
        }
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr e, combined.Resolve(*r));
        cross_side = cross_side == nullptr
                         ? e
                         : Expr::Binary(ExprKind::kAnd, cross_side, e);
      }
    }
    join_op->join_residual = cross_side;  // May stay null.
  }
  return result;
}

Result<SubPlan> QueryPlanner::PlanQuery(const AstQuery& query,
                                        const std::string& exposed_alias,
                                        std::vector<std::string>* out_names,
                                        std::vector<bool>* order_ascending) {
  MINIHIVE_ASSIGN_OR_RETURN(SubPlan plan, PlanTableRef(query.from));
  for (const AstJoin& join : query.joins) {
    MINIHIVE_ASSIGN_OR_RETURN(plan, PlanJoin(std::move(plan), join));
  }

  // The WHERE clause lands above the last join; PushdownIntoScans moves
  // each conjunct down to the join input that supplies its columns.
  if (query.where != nullptr) {
    Resolver resolver(&plan.columns);
    MINIHIVE_ASSIGN_OR_RETURN(ExprPtr pred, resolver.Resolve(*query.where));
    OpDescPtr filter = MakeOp(OpKind::kFilter);
    filter->predicate = std::move(pred);
    filter->output_width = plan.width();
    OpDesc::Connect(plan.tail, filter);
    plan.tail = filter;
  }

  if (query.select_star && !query.group_by.empty()) {
    return Status::InvalidArgument("SELECT * with GROUP BY");
  }

  bool has_aggs = false;
  for (const AstSelectItem& item : query.select) {
    if (ContainsAggregate(*item.expr)) has_aggs = true;
  }
  if (!query.group_by.empty()) has_aggs = true;

  std::vector<ColInfo> output_columns;
  std::vector<std::string> names;

  if (has_aggs) {
    Resolver pre_agg(&plan.columns);
    // Group keys.
    std::vector<ExprPtr> key_exprs;
    std::vector<std::string> key_texts;
    for (const AstExprPtr& g : query.group_by) {
      MINIHIVE_ASSIGN_OR_RETURN(ExprPtr e, pre_agg.Resolve(*g));
      key_exprs.push_back(std::move(e));
      key_texts.push_back(g->ToString());
    }
    int num_keys = static_cast<int>(key_exprs.size());

    // Extract aggregates from the select list; build post-agg projections
    // over the layout [group keys][agg results].
    std::vector<AggDesc> aggs;
    std::vector<ExprPtr> post_projections;

    // Recursive lambda: rewrites an AST expr into a post-agg Expr.
    std::function<Result<ExprPtr>(const AstExpr&)> rewrite =
        [&](const AstExpr& ast) -> Result<ExprPtr> {
      // A subexpression that textually matches a GROUP BY expression maps
      // to the corresponding key column.
      std::string text = ast.ToString();
      for (int k = 0; k < num_keys; ++k) {
        if (text == key_texts[k]) {
          return Expr::Column(k, key_exprs[k]->result_type());
        }
      }
      if (ast.kind == AstExprKind::kFunction) {
        AggDesc desc;
        MINIHIVE_ASSIGN_OR_RETURN(desc.kind,
                                  ToAggKind(ast.function, ast.star));
        if (!ast.star) {
          MINIHIVE_ASSIGN_OR_RETURN(desc.arg,
                                    pre_agg.Resolve(*ast.children[0]));
        }
        TypeKind type = desc.ResultType();
        // Deduplicate identical aggregates.
        for (size_t i = 0; i < aggs.size(); ++i) {
          if (aggs[i].kind == desc.kind &&
              ((aggs[i].arg == nullptr && desc.arg == nullptr) ||
               (aggs[i].arg != nullptr && desc.arg != nullptr &&
                aggs[i].arg->ToString() == desc.arg->ToString()))) {
            return Expr::Column(num_keys + static_cast<int>(i), type);
          }
        }
        aggs.push_back(desc);
        return Expr::Column(num_keys + static_cast<int>(aggs.size()) - 1,
                            type);
      }
      if (ast.kind == AstExprKind::kColumn) {
        return Status::InvalidArgument("column " + ast.ToString() +
                                       " is not in GROUP BY");
      }
      if (ast.kind == AstExprKind::kLiteral) {
        return Resolver(&plan.columns).Resolve(ast);
      }
      // Rebuild the node with rewritten children.
      AstExpr copy = ast;
      std::vector<ExprPtr> kids;
      for (const AstExprPtr& child : ast.children) {
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr k, rewrite(*child));
        kids.push_back(std::move(k));
      }
      switch (ast.kind) {
        case AstExprKind::kBinary: {
          static const std::pair<const char*, ExprKind> kOps[] = {
              {"+", ExprKind::kAdd},   {"-", ExprKind::kSub},
              {"*", ExprKind::kMul},   {"/", ExprKind::kDiv},
              {"=", ExprKind::kEq},    {"!=", ExprKind::kNe},
              {"<", ExprKind::kLt},    {"<=", ExprKind::kLe},
              {">", ExprKind::kGt},    {">=", ExprKind::kGe},
              {"AND", ExprKind::kAnd}, {"OR", ExprKind::kOr}};
          for (const auto& [t, kind] : kOps) {
            if (ast.op == t) return Expr::Binary(kind, kids[0], kids[1]);
          }
          return Status::InvalidArgument("unknown operator: " + ast.op);
        }
        case AstExprKind::kNot:
          return Expr::Not(kids[0]);
        case AstExprKind::kIsNull:
          return Expr::IsNull(kids[0], ast.negated);
        case AstExprKind::kBetween: {
          ExprPtr b = Expr::Between(kids[0], kids[1], kids[2]);
          return ast.negated ? Expr::Not(b) : b;
        }
        case AstExprKind::kIn: {
          std::vector<ExprPtr> list(kids.begin() + 1, kids.end());
          ExprPtr in = Expr::In(kids[0], std::move(list));
          return ast.negated ? Expr::Not(in) : in;
        }
        default:
          return Status::Internal("unexpected ast node in rewrite");
      }
    };

    for (const AstSelectItem& item : query.select) {
      MINIHIVE_ASSIGN_OR_RETURN(ExprPtr e, rewrite(*item.expr));
      post_projections.push_back(std::move(e));
      names.push_back(item.alias.empty() ? item.expr->ToString()
                                         : item.alias);
    }

    // Map-side partial aggregation (hash), shuffle on the group keys, then
    // the reduce-side merge.
    int partial_width = 0;
    for (const AggDesc& a : aggs) partial_width += a.PartialArity();

    OpDescPtr gby_hash = MakeOp(OpKind::kGroupBy);
    gby_hash->group_keys = key_exprs;
    gby_hash->aggs = aggs;
    gby_hash->group_by_mode = exec::GroupByMode::kHash;
    gby_hash->output_width = num_keys + partial_width;
    OpDesc::Connect(plan.tail, gby_hash);

    OpDescPtr rs = MakeOp(OpKind::kReduceSink);
    for (int k = 0; k < num_keys; ++k) {
      rs->sink_keys.push_back(
          Expr::Column(k, key_exprs[k]->result_type()));
    }
    for (int v = 0; v < partial_width; ++v) {
      rs->sink_values.push_back(
          Expr::Column(num_keys + v, TypeKind::kDouble));
    }
    rs->sink_tag = 0;
    // Global (keyless) aggregation funnels everything into one group, so a
    // single reducer both suffices and lets it emit the SQL-mandated result
    // row (COUNT(*) = 0) when the input is empty.
    rs->sink_num_reducers = num_keys == 0 ? 1 : 0;
    rs->output_width = num_keys + partial_width;
    OpDesc::Connect(gby_hash, rs);

    OpDescPtr gby_merge = MakeOp(OpKind::kGroupBy);
    gby_merge->aggs = aggs;
    gby_merge->group_by_mode = exec::GroupByMode::kMergePartial;
    gby_merge->partial_offset = num_keys;
    gby_merge->output_width = num_keys + static_cast<int>(aggs.size());
    OpDesc::Connect(rs, gby_merge);

    OpDescPtr select = MakeOp(OpKind::kSelect);
    select->projections = post_projections;
    select->output_width = static_cast<int>(post_projections.size());
    OpDesc::Connect(gby_merge, select);
    plan.tail = select;

    for (size_t i = 0; i < post_projections.size(); ++i) {
      output_columns.push_back({exposed_alias, names[i],
                                post_projections[i]->result_type(), false});
    }
  } else {
    // Plain projection.
    Resolver resolver(&plan.columns);
    std::vector<ExprPtr> projections;
    if (query.select_star) {
      for (size_t i = 0; i < plan.columns.size(); ++i) {
        if (plan.columns[i].hidden) continue;
        projections.push_back(
            Expr::Column(static_cast<int>(i), plan.columns[i].type));
        names.push_back(plan.columns[i].name);
      }
    } else {
      for (const AstSelectItem& item : query.select) {
        MINIHIVE_ASSIGN_OR_RETURN(ExprPtr e, resolver.Resolve(*item.expr));
        projections.push_back(std::move(e));
        names.push_back(item.alias.empty() ? item.expr->ToString()
                                           : item.alias);
      }
    }
    OpDescPtr select = MakeOp(OpKind::kSelect);
    select->projections = projections;
    select->output_width = static_cast<int>(projections.size());
    OpDesc::Connect(plan.tail, select);
    plan.tail = select;
    for (size_t i = 0; i < projections.size(); ++i) {
      output_columns.push_back(
          {exposed_alias, names[i], projections[i]->result_type(), false});
    }
  }

  // ORDER BY: a single-reducer shuffle keyed on the order expressions.
  if (!query.order_by.empty()) {
    std::vector<ExprPtr> order_keys;
    std::vector<bool> ascending;
    for (const AstOrderItem& item : query.order_by) {
      // Match a select item by alias or text; otherwise resolve against the
      // output columns by name.
      int index = -1;
      std::string text = item.expr->ToString();
      for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == text) index = static_cast<int>(i);
      }
      if (index < 0) {
        for (size_t i = 0; i < query.select.size(); ++i) {
          if (query.select[i].expr->ToString() == text) {
            index = static_cast<int>(i);
          }
        }
      }
      if (index < 0) {
        return Status::InvalidArgument(
            "ORDER BY expression must appear in the select list: " + text);
      }
      order_keys.push_back(
          Expr::Column(index, output_columns[index].type));
      ascending.push_back(item.ascending);
    }
    OpDescPtr rs = MakeOp(OpKind::kReduceSink);
    rs->sink_keys = order_keys;
    rs->sink_ascending = ascending;
    rs->sink_num_reducers = 1;
    for (size_t i = 0; i < output_columns.size(); ++i) {
      rs->sink_values.push_back(
          Expr::Column(static_cast<int>(i), output_columns[i].type));
    }
    rs->output_width =
        static_cast<int>(order_keys.size() + output_columns.size());
    OpDesc::Connect(plan.tail, rs);
    // Reduce side: drop the key prefix back to the output layout.
    OpDescPtr select = MakeOp(OpKind::kSelect);
    int key_width = static_cast<int>(order_keys.size());
    for (size_t i = 0; i < output_columns.size(); ++i) {
      select->projections.push_back(Expr::Column(
          key_width + static_cast<int>(i), output_columns[i].type));
    }
    select->output_width = static_cast<int>(output_columns.size());
    OpDesc::Connect(rs, select);
    plan.tail = select;
    if (order_ascending != nullptr) *order_ascending = ascending;
  }

  if (query.limit >= 0) {
    OpDescPtr limit = MakeOp(OpKind::kLimit);
    limit->limit = query.limit;
    limit->output_width = static_cast<int>(output_columns.size());
    OpDesc::Connect(plan.tail, limit);
    plan.tail = limit;
  }

  plan.columns = std::move(output_columns);
  if (out_names != nullptr) *out_names = std::move(names);
  return plan;
}

}  // namespace

Result<ExprPtr> ResolveScalarExpr(const AstExpr& ast, const TypePtr& schema) {
  if (schema == nullptr || schema->kind() != TypeKind::kStruct) {
    return Status::InvalidArgument("expected a struct schema");
  }
  std::vector<ColInfo> columns;
  const auto& names = schema->field_names();
  for (size_t i = 0; i < names.size(); ++i) {
    ColInfo col;
    col.name = names[i];
    col.type = schema->children()[i]->kind();
    columns.push_back(std::move(col));
  }
  return Resolver(&columns).Resolve(ast);
}

Result<PlannedQuery> Analyzer::Analyze(const AstQuery& query,
                                       const std::string& result_path) {
  QueryPlanner planner(catalog_);
  std::vector<std::string> names;
  std::vector<bool> order_ascending;
  MINIHIVE_ASSIGN_OR_RETURN(
      SubPlan plan, planner.PlanQuery(query, "", &names, &order_ascending));

  PlannedQuery result;
  result.result_names = names;
  for (const auto& col : plan.columns) {
    result.result_types.push_back(col.type);
  }
  result.order_ascending = std::move(order_ascending);
  result.limit = query.limit;

  // Final FileSink: the query result lands in `result_path` as a
  // schema-less (variant-coded) SequenceFile the Driver fetches back.
  OpDescPtr sink = MakeOp(OpKind::kFileSink);
  sink->sink_path_prefix = result_path;
  sink->sink_format = formats::FormatKind::kSequenceFile;
  sink->sink_schema = nullptr;
  sink->output_width = static_cast<int>(result.result_types.size());
  OpDesc::Connect(plan.tail, sink);

  result.roots = std::move(plan.roots);
  result.sink = sink;
  return result;
}

std::string PlannedQuery::DebugString() const {
  std::string s;
  for (const exec::OpDescPtr& root : roots) {
    s += root->DebugString();
  }
  return s;
}

}  // namespace minihive::ql
