// Per-node plan facts: the working-set masks SealPlanNode stores on every
// node must price exactly what a full walk of the node's subtree does.
// The reference below is that walk (collect every table and index id,
// sort, dedupe, sum tables then indexes in ascending id order). It runs on
// every node reachable from the plans Optimize and OptimizeGrid return,
// for every TPC-H and TPC-C template under several memory contexts, and
// the comparison is exact: the masks are the kernel's only working-set
// path, so any drift here is a cost drift everywhere.
#include "simdb/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "simdb/cost_model_db2.h"
#include "simdb/cost_model_pg.h"
#include "simdb/optimizer.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"

namespace vdba::simdb {
namespace {

void CollectIds(const PlanNode& node, std::vector<TableId>* tables,
                std::vector<IndexId>* indexes) {
  if (node.table != kInvalidTable) tables->push_back(node.table);
  if (node.index != kInvalidIndex) indexes->push_back(node.index);
  if (node.inner_index != kInvalidIndex) indexes->push_back(node.inner_index);
  if (node.left != nullptr) CollectIds(*node.left, tables, indexes);
  if (node.right != nullptr) CollectIds(*node.right, tables, indexes);
}

/// The working-set walk the masks replaced, kept verbatim as the oracle.
double ReferenceWorkingSetBytes(const Catalog& catalog, const PlanNode& plan) {
  std::vector<TableId> tables;
  std::vector<IndexId> indexes;
  CollectIds(plan, &tables, &indexes);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  std::sort(indexes.begin(), indexes.end());
  indexes.erase(std::unique(indexes.begin(), indexes.end()), indexes.end());
  double bytes = 0.0;
  for (TableId t : tables) bytes += catalog.table(t).Pages() * kPageSizeBytes;
  for (IndexId i : indexes) bytes += catalog.IndexLeafPages(i) * kPageSizeBytes;
  return bytes;
}

void ReachableNodes(const PlanNode* node, std::set<const PlanNode*>* out) {
  if (node == nullptr || !out->insert(node).second) return;
  ReachableNodes(node->left, out);
  ReachableNodes(node->right, out);
}

/// Walks `original` and its clone in lockstep: same masks, empty slot.
void ExpectCloneKeepsFacts(const PlanNode& original, const PlanNode& copy) {
  EXPECT_EQ(copy.table_mask, original.table_mask);
  EXPECT_EQ(copy.index_mask, original.index_mask);
  EXPECT_EQ(copy.sort_parent, nullptr);
  ASSERT_EQ(copy.left == nullptr, original.left == nullptr);
  ASSERT_EQ(copy.right == nullptr, original.right == nullptr);
  if (original.left != nullptr) {
    ExpectCloneKeepsFacts(*original.left, *copy.left);
  }
  if (original.right != nullptr) {
    ExpectCloneKeepsFacts(*original.right, *copy.right);
  }
}

/// PostgreSQL parameter vectors spanning six estimation memory contexts
/// (three work_mem settings by two cache sizes), two members each.
std::vector<EngineParams> PgSweep() {
  std::vector<EngineParams> sweep;
  for (double work_mem : {1.0, 5.0, 64.0}) {
    for (double cache : {16.0, 4096.0}) {
      for (double rpc : {1.5, 9.0}) {
        PgParams p;
        p.work_mem_mb = work_mem;
        p.shared_buffers_mb = cache / 4.0;
        p.effective_cache_size_mb = cache;
        p.random_page_cost = rpc;
        sweep.push_back(p);
      }
    }
  }
  return sweep;
}

/// DB2 parameter vectors spanning three sortheap contexts.
std::vector<EngineParams> Db2Sweep() {
  std::vector<EngineParams> sweep;
  for (double sortheap : {2.0, 40.0, 400.0}) {
    for (double overhead : {2.0, 12.0}) {
      Db2Params p;
      p.sortheap_mb = sortheap;
      p.overhead_ms = overhead;
      sweep.push_back(p);
    }
  }
  return sweep;
}

class PlanFactsTest : public ::testing::Test {
 protected:
  /// Checks every node of every plan Optimize and OptimizeGrid return for
  /// `queries` under `sweep`, then clones each distinct root.
  void CheckQueries(const Catalog& catalog, const CostModel& model,
                    const std::vector<QuerySpec>& queries,
                    const std::vector<EngineParams>& sweep) {
    Optimizer opt(catalog, model);
    std::set<std::string> contexts;
    for (const EngineParams& p : sweep) {
      MemoryContext mem = model.EstimationContext(p);
      contexts.insert(std::to_string(mem.work_mem_bytes) + "/" +
                      std::to_string(mem.buffer_bytes));
    }
    ASSERT_GE(contexts.size(), 3u);

    for (const QuerySpec& q : queries) {
      SCOPED_TRACE(q.name);
      std::vector<PlanPtr> roots;
      for (OptimizeResult& r : opt.OptimizeGrid(q, sweep)) {
        roots.push_back(r.plan);
      }
      for (const EngineParams& p : sweep) {
        roots.push_back(opt.Optimize(q, p).plan);
      }
      std::set<const PlanNode*> nodes;
      for (const PlanPtr& root : roots) {
        ASSERT_NE(root, nullptr);
        ReachableNodes(root.get(), &nodes);
      }
      for (const PlanNode* node : nodes) {
        EXPECT_EQ(PlanWorkingSetBytes(catalog, *node),
                  ReferenceWorkingSetBytes(catalog, *node))
            << PlanOpName(node->op);
        if (node->sort_parent != nullptr) ++nodes_with_sort_parent_;
        ++nodes_checked_;
      }
      std::set<const PlanNode*> cloned;
      for (const PlanPtr& root : roots) {
        if (!cloned.insert(root.get()).second) continue;
        PlanArena arena;
        ExpectCloneKeepsFacts(*root, *ClonePlan(*root, &arena));
      }
    }
  }

  size_t nodes_checked_ = 0;
  size_t nodes_with_sort_parent_ = 0;
};

TEST_F(PlanFactsTest, TpchMasksMatchTheReferenceWalk) {
  workload::TpchDatabase db = workload::MakeTpchDatabase(1.0);
  std::vector<QuerySpec> queries;
  for (int qn = 1; qn <= 22; ++qn) {
    queries.push_back(workload::TpchQuery(db, qn));
  }
  queries.push_back(workload::TpchQuery18Modified(db));
  PgCostModel pg;
  Db2CostModel db2;
  CheckQueries(db.catalog, pg, queries, PgSweep());
  CheckQueries(db.catalog, db2, queries, Db2Sweep());
  EXPECT_GT(nodes_checked_, 1000u);
  // Grid plans are read back with their sort slots filled: the clone
  // check above is not vacuous.
  EXPECT_GT(nodes_with_sort_parent_, 0u);
}

TEST_F(PlanFactsTest, TpccMasksMatchTheReferenceWalk) {
  workload::TpccDatabase db = workload::MakeTpccDatabase(10);
  std::vector<QuerySpec> queries;
  for (workload::TpccTransaction txn :
       {workload::TpccTransaction::kNewOrder,
        workload::TpccTransaction::kPayment,
        workload::TpccTransaction::kOrderStatus,
        workload::TpccTransaction::kDelivery,
        workload::TpccTransaction::kStockLevel}) {
    queries.push_back(workload::TpccQuery(db, txn, 16.0));
  }
  PgCostModel pg;
  Db2CostModel db2;
  CheckQueries(db.catalog, pg, queries, PgSweep());
  CheckQueries(db.catalog, db2, queries, Db2Sweep());
  EXPECT_GT(nodes_checked_, 0u);
}

TEST(PlanFactsSealTest, SealCoversTheWidestIds) {
  // Ids 0 and 63 are the ends of the 64-bit masks; an index nested loop
  // carries its inner index on the join node itself.
  Catalog catalog;
  for (size_t i = 0; i < kMaxCatalogIds; ++i) {
    TableDef t;
    t.name = std::to_string(i);
    t.rows = 1000.0 * static_cast<double>(i + 1);
    catalog.AddTable(t);
    catalog.AddIndex(IndexDef{.name = std::to_string(i),
                              .table = static_cast<TableId>(i),
                              .column = "pk"});
  }
  PlanArena arena;
  PlanNode* outer = arena.New();
  outer->op = PlanOp::kIndexScan;
  outer->table = 63;
  outer->index = 63;
  SealPlanNode(outer);
  PlanNode* inner = arena.New();
  inner->op = PlanOp::kSeqScan;
  inner->table = 0;
  SealPlanNode(inner);
  PlanNode* join = arena.New();
  join->op = PlanOp::kIndexNestLoopJoin;
  join->left = outer;
  join->right = inner;
  join->inner_index = 0;
  SealPlanNode(join);

  EXPECT_EQ(join->table_mask, (uint64_t{1} << 63) | 1u);
  EXPECT_EQ(join->index_mask, (uint64_t{1} << 63) | 1u);
  for (const PlanNode* node : {static_cast<const PlanNode*>(outer),
                               static_cast<const PlanNode*>(inner),
                               static_cast<const PlanNode*>(join)}) {
    EXPECT_EQ(PlanWorkingSetBytes(catalog, *node),
              ReferenceWorkingSetBytes(catalog, *node));
  }

  // An id past the mask width cannot be sealed.
  PlanNode* wide = arena.New();
  wide->op = PlanOp::kSeqScan;
  wide->table = static_cast<TableId>(kMaxCatalogIds);
  EXPECT_DEATH(SealPlanNode(wide), "");
}

}  // namespace
}  // namespace vdba::simdb
