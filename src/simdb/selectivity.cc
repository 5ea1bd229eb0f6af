#include "simdb/selectivity.h"

#include "util/check.h"

namespace vdba::simdb {

CardinalityModel::CardinalityModel(const Catalog& catalog,
                                   const QuerySpec& query)
    : query_(query) {
  VDBA_CHECK(!query.relations.empty());
  VDBA_CHECK_LE(query.relations.size(), size_t{kMaxRelations});
  std::vector<double> widths;
  base_rows_.reserve(query.relations.size());
  widths.reserve(query.relations.size());
  for (const RelationRef& rel : query.relations) {
    const TableDef& t = catalog.table(rel.table);
    double rows = t.rows * rel.filter_selectivity;
    base_rows_.push_back(rows < 1.0 ? 1.0 : rows);
    // Joins project a subset of columns; half the base width is a standard
    // simplification.
    widths.push_back(t.row_width_bytes * 0.5);
  }
  // Every mask's row count and width, tabulated once.
  all_ = static_cast<RelMask>((1u << num_relations()) - 1u);
  subset_rows_.resize(size_t{all_} + 1);
  row_widths_.resize(size_t{all_} + 1);
  for (RelMask mask = 0; mask <= all_; ++mask) {
    double rows = 1.0;
    double width = 0.0;
    for (int i = 0; i < num_relations(); ++i) {
      if (mask & (1u << i)) {
        rows *= base_rows_[static_cast<size_t>(i)];
        width += widths[static_cast<size_t>(i)];
      }
    }
    for (const JoinPredicate& j : query.joins) {
      bool l = mask & (1u << j.left_rel);
      bool r = mask & (1u << j.right_rel);
      if (l && r) rows *= j.selectivity;
    }
    subset_rows_[mask] = rows < 1.0 ? 1.0 : rows;
    row_widths_[mask] = width < 16.0 ? 16.0 : width;
  }
}

double CardinalityModel::BaseRows(int rel) const {
  VDBA_CHECK_GE(rel, 0);
  VDBA_CHECK_LT(static_cast<size_t>(rel), base_rows_.size());
  return base_rows_[static_cast<size_t>(rel)];
}

bool CardinalityModel::Connected(RelMask mask) const {
  if (mask == 0) return false;
  int first = -1;
  for (int i = 0; i < num_relations(); ++i) {
    if (mask & (1u << i)) {
      first = i;
      break;
    }
  }
  RelMask reached = 1u << first;
  bool grew = true;
  while (grew) {
    grew = false;
    for (const JoinPredicate& j : query_.joins) {
      RelMask l = 1u << j.left_rel;
      RelMask r = 1u << j.right_rel;
      if ((l & mask) && (r & mask)) {
        if ((reached & l) && !(reached & r)) {
          reached |= r;
          grew = true;
        } else if ((reached & r) && !(reached & l)) {
          reached |= l;
          grew = true;
        }
      }
    }
  }
  return reached == mask;
}

double CardinalityModel::JoinRows() const {
  return SubsetRows(all_);
}

double CardinalityModel::RowsAfterAggregate() const {
  double rows = JoinRows();
  switch (query_.aggregate.kind) {
    case AggregateKind::kNone:
      return rows;
    case AggregateKind::kScalar:
      return 1.0;
    case AggregateKind::kGrouped: {
      double groups = query_.aggregate.num_groups;
      if (groups > rows) groups = rows;
      groups *= query_.aggregate.having_selectivity;
      return groups < 1.0 ? 1.0 : groups;
    }
  }
  return rows;
}

double CardinalityModel::ResultRows() const {
  double rows = RowsAfterAggregate();
  if (query_.limit_rows > 0.0 && rows > query_.limit_rows) {
    rows = query_.limit_rows;
  }
  return rows;
}

}  // namespace vdba::simdb
