#include "simdb/catalog.h"

#include <gtest/gtest.h>

#include <string>

namespace vdba::simdb {
namespace {

TableDef MakeTable(const std::string& name, double rows, double width) {
  TableDef t;
  t.name = name;
  t.rows = rows;
  t.row_width_bytes = width;
  return t;
}

TEST(CatalogTest, AddAndLookupTables) {
  Catalog cat;
  TableId a = cat.AddTable(MakeTable("a", 1000, 100));
  TableId b = cat.AddTable(MakeTable("b", 2000, 50));
  EXPECT_EQ(cat.num_tables(), 2u);
  EXPECT_EQ(cat.table(a).name, "a");
  EXPECT_EQ(cat.table(b).rows, 2000);
  auto found = cat.FindTable("b");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, b);
  EXPECT_FALSE(cat.FindTable("missing").ok());
}

TEST(CatalogTest, PagesScaleWithRowsAndWidth) {
  TableDef t = MakeTable("t", 1000000, 100);
  // 100 MB of data at 70% fill in 8 KB pages.
  double expected = 1000000.0 * 100.0 / 0.7 / 8192.0;
  EXPECT_NEAR(t.Pages(), expected, 1.0);
  // Tiny tables still occupy one page.
  EXPECT_EQ(MakeTable("tiny", 1, 10).Pages(), 1.0);
}

TEST(CatalogTest, IndexLookupByTableAndColumn) {
  Catalog cat;
  TableId t = cat.AddTable(MakeTable("t", 100000, 100));
  IndexDef idx{.name = "t_pk", .table = t, .column = "pk", .clustered = true};
  IndexId id = cat.AddIndex(idx);
  EXPECT_EQ(cat.FindIndex(t, "pk"), id);
  EXPECT_EQ(cat.FindIndex(t, "other"), kInvalidIndex);
}

TEST(CatalogTest, IndexHeightGrowsWithRows) {
  EXPECT_EQ(IndexDef::HeightForRows(100), 1);
  int h_small = IndexDef::HeightForRows(100000);
  int h_large = IndexDef::HeightForRows(100000000);
  EXPECT_GE(h_small, 2);
  EXPECT_GT(h_large, h_small - 1);
  EXPECT_LE(h_large, 5);
}

TEST(CatalogTest, IndexLeafPagesProportionalToRows) {
  Catalog cat;
  TableId t = cat.AddTable(MakeTable("t", 4000000, 100));
  IndexDef idx;
  idx.table = t;
  idx.column = "pk";
  IndexId id = cat.AddIndex(idx);
  EXPECT_NEAR(cat.IndexLeafPages(id), 10000.0, 1.0);  // 4M / 400 per leaf
}

TEST(CatalogTest, TotalPagesSumsTables) {
  Catalog cat;
  cat.AddTable(MakeTable("a", 70000, 81.92));   // ~1000 pages
  cat.AddTable(MakeTable("b", 140000, 81.92));  // ~2000 pages
  EXPECT_NEAR(cat.TotalPages(), 3000.0, 5.0);
}

TEST(CatalogTest, AcceptsSixtyFourTablesAndIndexes) {
  // Plan working sets are 64-bit id masks: ids 0..63 must all be usable.
  Catalog cat;
  for (size_t i = 0; i < kMaxCatalogIds; ++i) {
    TableId t = cat.AddTable(MakeTable(std::to_string(i), 1000, 100));
    EXPECT_EQ(t, static_cast<TableId>(i));
    IndexDef idx{.name = std::to_string(i), .table = t, .column = "pk"};
    EXPECT_EQ(cat.AddIndex(idx), static_cast<IndexId>(i));
  }
  EXPECT_EQ(cat.num_tables(), 64u);
  EXPECT_EQ(cat.num_indexes(), 64u);
  EXPECT_DEATH(cat.AddTable(MakeTable("t64", 1000, 100)), "");
  IndexDef extra{.name = "ix64", .table = 0, .column = "pk"};
  EXPECT_DEATH(cat.AddIndex(extra), "");
}

}  // namespace
}  // namespace vdba::simdb
