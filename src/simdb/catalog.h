// Schema catalog for the simulated DBMS: tables, columns, indexes, and the
// derived statistics (pages, widths, NDVs) that drive cardinality and cost
// estimation.
#ifndef VDBA_SIMDB_CATALOG_H_
#define VDBA_SIMDB_CATALOG_H_

#include <string>
#include <vector>

#include "simdb/types.h"
#include "util/check.h"
#include "util/status.h"

namespace vdba::simdb {

/// Per-column statistics. `ndv` is the number of distinct values; the
/// cardinality estimator assumes uniformity (as both real optimizers do by
/// default, and as the paper's calibration databases are built to satisfy).
struct ColumnDef {
  std::string name;
  double ndv = 1.0;
};

/// Base table metadata. `rows` and `row_width_bytes` determine `pages`.
struct TableDef {
  std::string name;
  double rows = 0.0;
  double row_width_bytes = 100.0;
  std::vector<ColumnDef> columns;

  /// Heap pages occupied by the table (at ~70% fill factor, matching
  /// typical production layouts).
  double Pages() const {
    double bytes = rows * row_width_bytes / 0.7;
    double pages = bytes / kPageSizeBytes;
    return pages < 1.0 ? 1.0 : pages;
  }
};

/// Secondary B-tree index over one column of a table.
struct IndexDef {
  std::string name;
  TableId table = kInvalidTable;
  std::string column;
  /// True when heap order correlates with index order; clustered scans do
  /// sequential heap I/O, unclustered ones random I/O.
  bool clustered = false;

  /// B-tree height (root-to-leaf page hops) for a table with `rows` entries.
  static int HeightForRows(double rows);
};

/// Plan nodes record their working set as 64-bit masks over table ids and
/// over index ids (PlanNode::table_mask / index_mask), so a catalog holds
/// at most this many tables and this many indexes.
inline constexpr size_t kMaxCatalogIds = 64;

/// An immutable collection of tables and indexes. Engines hold a Catalog
/// per database instance (e.g. TPC-H SF1, TPC-H SF10, TPC-C 10wh). The
/// derived page counts and heights are computed once, at registration:
/// the optimizer's costing walk reads them for every candidate plan.
class Catalog {
 public:
  Catalog() = default;

  /// Registers a table; returns its id (below kMaxCatalogIds).
  TableId AddTable(TableDef table);

  /// Registers an index; returns its id (below kMaxCatalogIds).
  IndexId AddIndex(IndexDef index);

  const TableDef& table(TableId id) const {
    return tables_[CheckedTable(id)];
  }
  const IndexDef& index(IndexId id) const {
    return indexes_[CheckedIndex(id)];
  }
  size_t num_tables() const { return tables_.size(); }
  size_t num_indexes() const { return indexes_.size(); }

  /// Looks up a table id by name.
  StatusOr<TableId> FindTable(const std::string& name) const;

  /// First index on (table, column), or kInvalidIndex.
  IndexId FindIndex(TableId table, const std::string& column) const;

  /// Heap pages of a table (TableDef::Pages).
  double TablePages(TableId id) const {
    return table_pages_[CheckedTable(id)];
  }

  /// Leaf pages of an index (entries are ~20 bytes).
  double IndexLeafPages(IndexId id) const {
    return index_leaf_pages_[CheckedIndex(id)];
  }

  /// B-tree height of an index.
  int IndexHeight(IndexId id) const { return index_heights_[CheckedIndex(id)]; }

  /// Total data pages across all tables (used to size buffer pools and the
  /// paper-style "database size" reporting).
  double TotalPages() const;

 private:
  size_t CheckedTable(TableId id) const {
    VDBA_CHECK_GE(id, 0);
    VDBA_CHECK_LT(static_cast<size_t>(id), tables_.size());
    return static_cast<size_t>(id);
  }
  size_t CheckedIndex(IndexId id) const {
    VDBA_CHECK_GE(id, 0);
    VDBA_CHECK_LT(static_cast<size_t>(id), indexes_.size());
    return static_cast<size_t>(id);
  }

  std::vector<TableDef> tables_;
  std::vector<IndexDef> indexes_;
  std::vector<double> table_pages_;       ///< per table
  std::vector<double> index_leaf_pages_;  ///< per index
  std::vector<int> index_heights_;        ///< per index
};

}  // namespace vdba::simdb

#endif  // VDBA_SIMDB_CATALOG_H_
