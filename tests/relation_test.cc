#include "storage/relation.h"

#include <initializer_list>

#include "gtest/gtest.h"

namespace pdatalog {
namespace {

// Drains a probe cursor into a vector for easy assertions.
std::vector<uint32_t> Collect(const ColumnIndex& index,
                              std::initializer_list<Value> key,
                              size_t begin, size_t end) {
  std::vector<Value> k(key);
  ColumnIndex::Probe probe =
      index.ProbeRange(k.data(), static_cast<int>(k.size()), begin, end);
  std::vector<uint32_t> out;
  uint32_t id = 0;
  while (probe.Next(&id)) out.push_back(id);
  return out;
}

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(Tuple{1, 2}));
  EXPECT_FALSE(rel.Insert(Tuple{1, 2}));
  EXPECT_TRUE(rel.Insert(Tuple{2, 1}));
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationTest, Contains) {
  Relation rel(2);
  rel.Insert(Tuple{1, 2});
  EXPECT_TRUE(rel.Contains(Tuple{1, 2}));
  EXPECT_FALSE(rel.Contains(Tuple{2, 2}));
}

TEST(RelationTest, RowsAppendOnlyInInsertionOrder) {
  Relation rel(1);
  rel.Insert(Tuple{5});
  rel.Insert(Tuple{3});
  rel.Insert(Tuple{5});  // duplicate, not appended
  rel.Insert(Tuple{9});
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.row(0), (Tuple{5}));
  EXPECT_EQ(rel.row(1), (Tuple{3}));
  EXPECT_EQ(rel.row(2), (Tuple{9}));
}

TEST(RelationTest, DedupSurvivesRehashAndGrowth) {
  Relation rel(2);
  for (Value i = 0; i < 5000; ++i) {
    EXPECT_TRUE(rel.Insert(Tuple{i, i + 1}));
  }
  for (Value i = 0; i < 5000; ++i) {
    EXPECT_FALSE(rel.Insert(Tuple{i, i + 1}));
  }
  EXPECT_EQ(rel.size(), 5000u);
}

TEST(ColumnIndexTest, KeyExtraction) {
  ColumnStore store(3);
  ColumnIndex index(/*mask=*/0b101, /*arity=*/3, &store);
  Tuple key = index.MakeKey(Tuple{7, 8, 9});
  EXPECT_EQ(key, (Tuple{7, 9}));
}

TEST(RelationTest, EnsureIndexProbe) {
  Relation rel(2);
  rel.Insert(Tuple{1, 10});
  rel.Insert(Tuple{1, 11});
  rel.Insert(Tuple{2, 10});
  const ColumnIndex& index = rel.EnsureIndex(0b01);  // key on column 0
  EXPECT_EQ(Collect(index, {1}, 0, rel.size()),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(Collect(index, {9}, 0, rel.size()).empty());
}

TEST(RelationTest, ProbeRespectsRowRange) {
  Relation rel(2);
  for (Value i = 0; i < 20; ++i) rel.Insert(Tuple{7, i});
  const ColumnIndex& index = rel.EnsureIndex(0b01);
  EXPECT_EQ(Collect(index, {7}, 5, 8), (std::vector<uint32_t>{5, 6, 7}));
  EXPECT_EQ(Collect(index, {7}, 19, 20), (std::vector<uint32_t>{19}));
  EXPECT_TRUE(Collect(index, {7}, 4, 4).empty());
}

TEST(RelationTest, IndexExtendsIncrementally) {
  Relation rel(2);
  rel.Insert(Tuple{1, 10});
  rel.EnsureIndex(0b01);
  rel.Insert(Tuple{1, 11});
  // A stale index is still returned, but only covers the built prefix.
  const ColumnIndex* stale = rel.GetIndex(0b01);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->built_upto(), 1u);
  const ColumnIndex& index = rel.EnsureIndex(0b01);
  EXPECT_EQ(Collect(index, {1}, 0, rel.size()),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(index.built_upto(), 2u);
}

TEST(RelationTest, GetIndexMissing) {
  Relation rel(2);
  rel.Insert(Tuple{1, 2});
  EXPECT_EQ(rel.GetIndex(0b10), nullptr);
}

TEST(RelationTest, MultipleIndexesCoexist) {
  Relation rel(2);
  rel.Insert(Tuple{1, 10});
  rel.Insert(Tuple{2, 10});
  const ColumnIndex& by_first = rel.EnsureIndex(0b01);
  const ColumnIndex& by_second = rel.EnsureIndex(0b10);
  EXPECT_EQ(Collect(by_first, {1}, 0, rel.size()).size(), 1u);
  EXPECT_EQ(Collect(by_second, {10}, 0, rel.size()).size(), 2u);
}

TEST(RelationTest, FullMaskIndexActsAsExactLookup) {
  Relation rel(2);
  rel.Insert(Tuple{4, 5});
  const ColumnIndex& index = rel.EnsureIndex(0b11);
  EXPECT_EQ(Collect(index, {4, 5}, 0, rel.size()).size(), 1u);
  EXPECT_TRUE(Collect(index, {5, 4}, 0, rel.size()).empty());
}

TEST(RelationTest, SortedDump) {
  SymbolTable symbols;
  Value a = symbols.Intern("a");
  Value b = symbols.Intern("b");
  Relation rel(2);
  rel.Insert(Tuple{b, a});
  rel.Insert(Tuple{a, b});
  EXPECT_EQ(rel.ToSortedString(symbols), "(a, b)\n(b, a)\n");
}

// AppendDisjoint leaves the dedup table empty; every later reader and
// writer must still see the appended rows.
TEST(RelationTest, AppendDisjointDefersTheDedupTable) {
  Relation rel(2);
  rel.Insert(Tuple{1, 2});
  rel.Insert(Tuple{3, 4});
  rel.EnsureIndex(0b01);  // built before the append, extended after
  Relation other(2);
  other.Insert(Tuple{5, 6});
  other.Insert(Tuple{7, 8});
  rel.AppendDisjoint(other);
  ASSERT_EQ(rel.size(), 4u);
  EXPECT_EQ(rel.row(2), (Tuple{5, 6}));
  EXPECT_EQ(rel.row(3), (Tuple{7, 8}));

  // Contains answers without a table.
  EXPECT_TRUE(rel.Contains(Tuple{1, 2}));
  EXPECT_TRUE(rel.Contains(Tuple{7, 8}));
  EXPECT_FALSE(rel.Contains(Tuple{8, 7}));

  // A mixed block keeps only its new rows: (5, 6) and (1, 2) are
  // present, (9, 9) repeats within the block.
  const Value block[] = {5, 6, 9, 9, 1, 2, 9, 9, 10, 11};
  EXPECT_EQ(rel.InsertBlock(block, 2, 5), 2u);
  ASSERT_EQ(rel.size(), 6u);
  EXPECT_EQ(rel.row(4), (Tuple{9, 9}));
  EXPECT_EQ(rel.row(5), (Tuple{10, 11}));
  EXPECT_TRUE(rel.Contains(Tuple{5, 6}));

  // The index covers the appended rows after EnsureIndex.
  const ColumnIndex& index = rel.EnsureIndex(0b01);
  EXPECT_EQ(index.built_upto(), 6u);
  EXPECT_EQ(Collect(index, {7}, 0, 6), std::vector<uint32_t>{3});
  EXPECT_EQ(Collect(index, {1}, 0, 6), std::vector<uint32_t>{0});
}

TEST(RelationTest, InsertAfterAppendDisjointRejectsAppendedRows) {
  Relation rel(2);
  rel.Insert(Tuple{0, 0});
  Relation other(2);
  other.Insert(Tuple{1, 1});
  rel.AppendDisjoint(other);
  EXPECT_FALSE(rel.Insert(Tuple{1, 1}));
  EXPECT_FALSE(rel.Insert(Tuple{0, 0}));
  EXPECT_TRUE(rel.Insert(Tuple{2, 2}));
  EXPECT_EQ(rel.size(), 3u);
}

TEST(RelationTest, AppendDisjointAcrossChunkEdges) {
  // Neither side is chunk-aligned, so source and destination chunk
  // edges fall at different rows.
  Relation rel(2);
  for (Value i = 0; i < 3000; ++i) rel.Insert(Tuple{i, i + 1});
  Relation other(2);
  for (Value i = 3000; i < 8200; ++i) other.Insert(Tuple{i, i + 1});
  rel.AppendDisjoint(other);
  ASSERT_EQ(rel.size(), 8200u);
  for (Value i = 0; i < 8200; ++i) {
    ASSERT_EQ(rel.row(i), (Tuple{i, i + 1})) << "row " << i;
  }
  for (Value i = 0; i < 8200; i += 97) {
    EXPECT_FALSE(rel.Insert(Tuple{i, i + 1}));
  }
  EXPECT_EQ(rel.size(), 8200u);
}

TEST(RelationTest, ZeroArityRelation) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
}

}  // namespace
}  // namespace pdatalog
