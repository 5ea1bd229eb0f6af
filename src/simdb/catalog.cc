#include "simdb/catalog.h"

#include <cmath>

#include "util/check.h"

namespace vdba::simdb {

namespace {
// ~20 bytes per index entry -> ~400 entries per 8KB leaf page.
constexpr double kIndexEntriesPerLeafPage = 400.0;
// Inner B-tree fanout.
constexpr double kBtreeFanout = 400.0;
}  // namespace

int IndexDef::HeightForRows(double rows) {
  if (rows <= kIndexEntriesPerLeafPage) return 1;
  double leaves = rows / kIndexEntriesPerLeafPage;
  int height = 1;
  while (leaves > 1.0) {
    leaves /= kBtreeFanout;
    ++height;
  }
  return height;
}

TableId Catalog::AddTable(TableDef table) {
  VDBA_CHECK_GT(table.rows, 0.0);
  VDBA_CHECK_GT(table.row_width_bytes, 0.0);
  VDBA_CHECK_LT(tables_.size(), kMaxCatalogIds);
  table_pages_.push_back(table.Pages());
  tables_.push_back(std::move(table));
  return static_cast<TableId>(tables_.size() - 1);
}

IndexId Catalog::AddIndex(IndexDef index) {
  VDBA_CHECK_GE(index.table, 0);
  VDBA_CHECK_LT(static_cast<size_t>(index.table), tables_.size());
  VDBA_CHECK_LT(indexes_.size(), kMaxCatalogIds);
  const double rows = tables_[static_cast<size_t>(index.table)].rows;
  const double leaves = rows / kIndexEntriesPerLeafPage;
  index_leaf_pages_.push_back(leaves < 1.0 ? 1.0 : leaves);
  index_heights_.push_back(IndexDef::HeightForRows(rows));
  indexes_.push_back(std::move(index));
  return static_cast<IndexId>(indexes_.size() - 1);
}

StatusOr<TableId> Catalog::FindTable(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name == name) return static_cast<TableId>(i);
  }
  return Status::NotFound("table: " + name);
}

IndexId Catalog::FindIndex(TableId table, const std::string& column) const {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].table == table && indexes_[i].column == column) {
      return static_cast<IndexId>(i);
    }
  }
  return kInvalidIndex;
}

double Catalog::TotalPages() const {
  double total = 0.0;
  for (double pages : table_pages_) total += pages;
  return total;
}

}  // namespace vdba::simdb
