// Cardinality estimation over the query's join graph.
//
// Uniformity and independence assumptions, as in both real optimizers'
// default models (and as the paper's calibration databases are designed to
// satisfy, §4.3). Cardinalities are exact in this simulator: the modeling
// errors the paper studies live in *time* modeling (contention, sortheap),
// not in row counts, which keeps the experiments controlled.
#ifndef VDBA_SIMDB_SELECTIVITY_H_
#define VDBA_SIMDB_SELECTIVITY_H_

#include <cstdint>
#include <vector>

#include "simdb/catalog.h"
#include "simdb/query.h"

namespace vdba::simdb {

/// Bitmask over the query's relations (bit i = relations[i] included).
using RelMask = uint32_t;

/// Most relations the optimizer's join DPs accept in one query.
inline constexpr int kMaxRelations = 12;

/// Cardinality and width estimates for one query against one catalog, of
/// at most kMaxRelations relations. SubsetRows and RowWidth are tabulated
/// for every mask at construction.
class CardinalityModel {
 public:
  CardinalityModel(const Catalog& catalog, const QuerySpec& query);

  /// Rows of relation `rel` after its local predicates.
  double BaseRows(int rel) const;

  /// Rows produced by joining exactly the relations in `mask`
  /// (product of base rows times the selectivity of every join edge whose
  /// endpoints are both inside the mask).
  double SubsetRows(RelMask mask) const {
    return subset_rows_[mask];
  }

  /// Whether the relations of `mask` form a connected subgraph of the join
  /// graph (single relations are connected).
  bool Connected(RelMask mask) const;

  /// Output rows of the full join (all relations).
  double JoinRows() const;

  /// Rows after aggregation and HAVING (before LIMIT).
  double RowsAfterAggregate() const;

  /// Final rows returned to the client (after LIMIT).
  double ResultRows() const;

  /// Average output row width for a joined subset, in bytes.
  double RowWidth(RelMask mask) const {
    return row_widths_[mask];
  }

  int num_relations() const { return static_cast<int>(base_rows_.size()); }

 private:
  const QuerySpec& query_;
  std::vector<double> base_rows_;
  RelMask all_ = 0;  ///< every relation's bit
  /// Indexed by mask.
  std::vector<double> subset_rows_;
  std::vector<double> row_widths_;
};

}  // namespace vdba::simdb

#endif  // VDBA_SIMDB_SELECTIVITY_H_
