// Deeper coverage of the flat column index: incremental extension
// interleaved with inserts, probing a frozen prefix while the relation
// keeps growing (the worker pattern: scan bounds frozen per round), a
// randomized differential check against a naive scan, and the bulk
// merge (InsertAll) against a row-by-row union.
#include <random>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "storage/relation.h"

namespace pdatalog {
namespace {

std::vector<uint32_t> Probe(const ColumnIndex& index,
                            const std::vector<Value>& key, size_t begin,
                            size_t end) {
  ColumnIndex::Probe probe = index.ProbeRange(
      key.data(), static_cast<int>(key.size()), begin, end);
  std::vector<uint32_t> out;
  uint32_t id = 0;
  while (probe.Next(&id)) out.push_back(id);
  return out;
}

TEST(RelationIndexTest, ExtensionInterleavedWithInserts) {
  Relation rel(2);
  // Repeated EnsureIndex calls as the relation grows must each index
  // exactly the new suffix, never duplicating earlier rows.
  for (int round = 0; round < 10; ++round) {
    for (Value i = 0; i < 50; ++i) {
      rel.Insert(Tuple{i % 5, static_cast<Value>(round * 50 + i)});
    }
    const ColumnIndex& index = rel.EnsureIndex(0b01);
    EXPECT_EQ(index.built_upto(), rel.size());
  }
  const ColumnIndex& index = rel.EnsureIndex(0b01);
  size_t total = 0;
  for (Value k = 0; k < 5; ++k) {
    std::vector<uint32_t> ids = Probe(index, {k}, 0, rel.size());
    // Each key appears once per (round, i) pair with i % 5 == k.
    EXPECT_EQ(ids.size(), 100u) << "key " << k;
    // Ascending, no duplicates.
    for (size_t j = 1; j < ids.size(); ++j) EXPECT_LT(ids[j - 1], ids[j]);
    total += ids.size();
  }
  EXPECT_EQ(total, rel.size());
}

TEST(RelationIndexTest, ProbeFrozenPrefixWhileRelationGrows) {
  Relation rel(2);
  for (Value i = 0; i < 100; ++i) rel.Insert(Tuple{i % 3, i});
  rel.EnsureIndex(0b01);
  size_t frozen = rel.size();

  // The round's scan bounds are frozen; new arrivals land beyond them.
  for (Value i = 100; i < 200; ++i) rel.Insert(Tuple{i % 3, i});

  const ColumnIndex* index = rel.GetIndex(0b01);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->built_upto(), frozen);
  for (Value k = 0; k < 3; ++k) {
    std::vector<uint32_t> ids = Probe(*index, {k}, 0, frozen);
    for (uint32_t id : ids) {
      EXPECT_LT(id, frozen);
      EXPECT_EQ(rel.row(id)[0], k);
    }
  }
  // After re-extension the suffix becomes visible too.
  const ColumnIndex& extended = rel.EnsureIndex(0b01);
  std::vector<uint32_t> suffix = Probe(extended, {1}, frozen, rel.size());
  for (uint32_t id : suffix) EXPECT_GE(id, frozen);
  EXPECT_FALSE(suffix.empty());
}

TEST(RelationIndexTest, RandomizedDifferentialAgainstScan) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 20; ++trial) {
    const int arity = 1 + static_cast<int>(rng() % 4);
    Relation rel(arity);
    std::uniform_int_distribution<Value> val(0, 12);
    const int n = 200 + static_cast<int>(rng() % 300);
    for (int i = 0; i < n; ++i) {
      std::vector<Value> row(arity);
      for (Value& v : row) v = val(rng);
      rel.InsertView(row.data(), arity);
    }
    // Random nonempty column mask.
    uint32_t full = (1u << arity) - 1;
    uint32_t mask = 1 + rng() % full;
    const ColumnIndex& index = rel.EnsureIndex(mask);

    for (int probe = 0; probe < 50; ++probe) {
      std::vector<Value> key;
      for (int c = 0; c < arity; ++c) {
        if (mask & (1u << c)) key.push_back(val(rng));
      }
      size_t begin = rng() % (rel.size() + 1);
      size_t end = begin + rng() % (rel.size() - begin + 1);

      std::vector<uint32_t> expected;
      for (size_t r = begin; r < end; ++r) {
        const Tuple& row = rel.row(r);
        bool match = true;
        size_t k = 0;
        for (int c = 0; c < arity; ++c) {
          if (!(mask & (1u << c))) continue;
          if (row[c] != key[k++]) match = false;
        }
        if (match) expected.push_back(static_cast<uint32_t>(r));
      }
      EXPECT_EQ(Probe(index, key, begin, end), expected)
          << "trial " << trial << " probe " << probe << " mask " << mask
          << " range [" << begin << ", " << end << ")";
    }
  }
}

TEST(RelationIndexTest, ManyDistinctKeysSurviveSlotGrowth) {
  Relation rel(2);
  for (Value i = 0; i < 20000; ++i) rel.Insert(Tuple{i, i + 1});
  const ColumnIndex& index = rel.EnsureIndex(0b01);
  EXPECT_EQ(index.num_keys(), 20000u);
  for (Value i = 0; i < 20000; i += 997) {
    std::vector<uint32_t> ids = Probe(index, {i}, 0, rel.size());
    ASSERT_EQ(ids.size(), 1u) << "key " << i;
    EXPECT_EQ(ids[0], static_cast<uint32_t>(i));
  }
}

TEST(RelationIndexTest, InsertsStraddleChunkBoundaries) {
  // Rows live in fixed 4096-row chunks; cell reads, dedup, and index
  // probes must be seamless across the chunk edges.
  constexpr size_t kEdge = ColumnStore::kChunkRows;
  Relation rel(2);
  const size_t n = 2 * kEdge + kEdge / 2;  // spans three chunks
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple{static_cast<Value>(i % 7),
                                 static_cast<Value>(i)}));
  }
  ASSERT_EQ(rel.size(), n);
  for (size_t r : {kEdge - 1, kEdge, kEdge + 1, 2 * kEdge - 1, 2 * kEdge}) {
    EXPECT_EQ(rel.row(r), (Tuple{static_cast<Value>(r % 7),
                                 static_cast<Value>(r)}))
        << "row " << r;
  }
  // Duplicates of rows on both sides of an edge still dedup.
  EXPECT_FALSE(rel.Insert(Tuple{static_cast<Value>((kEdge - 1) % 7),
                                static_cast<Value>(kEdge - 1)}));
  EXPECT_FALSE(rel.Insert(Tuple{static_cast<Value>(kEdge % 7),
                                static_cast<Value>(kEdge)}));
  const ColumnIndex& index = rel.EnsureIndex(0b01);
  // Probe a window centered on the first chunk edge.
  std::vector<uint32_t> ids =
      Probe(index, {static_cast<Value>(kEdge % 7)}, kEdge - 7, kEdge + 7);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], static_cast<uint32_t>(kEdge - 7));
  EXPECT_EQ(ids[1], static_cast<uint32_t>(kEdge));
}

TEST(RelationIndexTest, InsertBlockStraddlesChunkEdge) {
  // A bulk columnar append whose keep-list crosses a chunk edge must
  // split the copy into per-chunk runs without dropping or mangling
  // rows. Pre-fill to just below the edge, then append a block that
  // crosses it.
  constexpr size_t kEdge = ColumnStore::kChunkRows;
  Relation rel(2);
  for (size_t i = 0; i < kEdge - 100; ++i) {
    rel.Insert(Tuple{static_cast<Value>(i), static_cast<Value>(i + 1)});
  }
  const uint32_t count = 300;
  std::vector<Value> cols(2 * count);  // column-major payload
  for (uint32_t r = 0; r < count; ++r) {
    cols[r] = static_cast<Value>(1000000 + r);
    cols[count + r] = static_cast<Value>(2000000 + r);
  }
  size_t added = rel.InsertBlock(cols.data(), 2, count, /*columnar=*/true);
  EXPECT_EQ(added, count);
  ASSERT_EQ(rel.size(), kEdge - 100 + count);
  for (uint32_t r = 0; r < count; ++r) {
    size_t row = kEdge - 100 + r;
    EXPECT_EQ(rel.row(row), (Tuple{static_cast<Value>(1000000 + r),
                                   static_cast<Value>(2000000 + r)}))
        << "appended row " << r;
  }
  // Re-sending the same block dedups entirely, across the edge.
  EXPECT_EQ(rel.InsertBlock(cols.data(), 2, count, /*columnar=*/true), 0u);
}

TEST(RelationIndexTest, ProbeRangeOverBlockBuiltRelation) {
  // A relation built purely from columnar InsertBlock appends (the
  // worker receive path) must index and probe identically to one built
  // from per-tuple inserts.
  constexpr uint32_t kBlock = 512;
  Relation from_blocks(2), from_inserts(2);
  std::mt19937 rng(20260808);
  // Wide first column keeps tuples mostly distinct (so the relation
  // grows past two chunk edges); narrow second column gives every
  // probe key a long posting list.
  std::uniform_int_distribution<Value> wide(0, 1 << 20);
  std::uniform_int_distribution<Value> val(0, 40);
  std::vector<Value> cols(2 * kBlock);
  for (int b = 0; b < 24; ++b) {  // 12288 candidate rows: crosses 2 edges
    for (uint32_t r = 0; r < kBlock; ++r) {
      cols[r] = wide(rng);
      cols[kBlock + r] = val(rng);
    }
    from_blocks.InsertBlock(cols.data(), 2, kBlock, /*columnar=*/true);
    for (uint32_t r = 0; r < kBlock; ++r) {
      from_inserts.Insert(Tuple{cols[r], cols[kBlock + r]});
    }
  }
  ASSERT_EQ(from_blocks.size(), from_inserts.size());
  ASSERT_GT(from_blocks.size(), 2 * ColumnStore::kChunkRows);
  const ColumnIndex& bi = from_blocks.EnsureIndex(0b10);
  const ColumnIndex& ii = from_inserts.EnsureIndex(0b10);
  for (Value k = 0; k <= 40; ++k) {
    EXPECT_EQ(Probe(bi, {k}, 0, from_blocks.size()),
              Probe(ii, {k}, 0, from_inserts.size()))
        << "key " << k;
  }
  // Sub-range probes spanning a chunk edge agree too.
  constexpr size_t kEdge = ColumnStore::kChunkRows;
  for (Value k = 0; k <= 40; k += 5) {
    EXPECT_EQ(Probe(bi, {k}, kEdge - 200, kEdge + 200),
              Probe(ii, {k}, kEdge - 200, kEdge + 200))
        << "key " << k;
  }
}

TEST(RelationIndexTest, SkewedKeyLongChains) {
  // One hot key spanning many pool chunks, probed over sub-ranges.
  Relation rel(2);
  for (Value i = 0; i < 5000; ++i) rel.Insert(Tuple{42, i});
  const ColumnIndex& index = rel.EnsureIndex(0b01);
  std::vector<uint32_t> all = Probe(index, {42}, 0, rel.size());
  ASSERT_EQ(all.size(), 5000u);
  std::vector<uint32_t> mid = Probe(index, {42}, 2000, 3000);
  ASSERT_EQ(mid.size(), 1000u);
  EXPECT_EQ(mid.front(), 2000u);
  EXPECT_EQ(mid.back(), 2999u);
}

// Inserts random rows of `rel`'s arity, each value in [0, range), until
// the relation holds `rows` rows (or, at arity 0, its one row).
void FillRandom(Relation* rel, size_t rows, Value range, std::mt19937* rng) {
  std::uniform_int_distribution<Value> value(0, range - 1);
  std::vector<Value> row(rel->arity());
  while (rel->size() < rows) {
    for (Value& v : row) v = value(*rng);
    rel->InsertView(row.data(), rel->arity());
    if (rel->arity() == 0) break;
  }
}

// The reference union: Insert() every row of `from`, one at a time.
size_t InsertRowByRow(Relation* into, const Relation& from) {
  size_t added = 0;
  for (size_t i = 0; i < from.size(); ++i) added += into->Insert(from.row(i));
  return added;
}

void ExpectSameRows(const Relation& got, const Relation& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.row(i), want.row(i)) << "row " << i;
  }
}

TEST(RelationIndexTest, InsertAllMatchesRowByRowUnion) {
  // Arity 0 (one possible row), 2, and 6 (heap-spilled Tuples). The
  // source spans three column chunks; the target is pre-filled past
  // its first chunk edge from the same value range, so the merge both
  // skips rows already present and appends across chunk edges.
  for (int arity : {0, 2, 6}) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    const Value range = arity == 2 ? 200 : 6;
    std::mt19937 rng(17 + arity);
    Relation source(arity);
    FillRandom(&source, 2 * ColumnStore::kChunkRows + 1000, range, &rng);
    Relation merged(arity);
    Relation reference(arity);
    FillRandom(&merged, ColumnStore::kChunkRows + 500, range, &rng);
    InsertRowByRow(&reference, merged);

    const size_t added = merged.InsertAll(source);
    EXPECT_EQ(added, InsertRowByRow(&reference, source));
    ExpectSameRows(merged, reference);
    if (arity > 0) {
      EXPECT_GT(added, 0u);
      EXPECT_LT(added, source.size());  // the overlap was really hit
    }

    // A source made only of duplicates adds nothing and leaves the
    // dedup set intact for later single-row inserts.
    EXPECT_EQ(merged.InsertAll(source), 0u);
    ExpectSameRows(merged, reference);
    for (size_t i = 0; i < source.size(); ++i) {
      ASSERT_FALSE(merged.Insert(source.row(i))) << "row " << i;
    }

    // An empty source adds nothing, into an empty or a filled target.
    Relation empty(arity);
    EXPECT_EQ(merged.InsertAll(empty), 0u);
    ExpectSameRows(merged, reference);
    Relation fresh(arity);
    EXPECT_EQ(fresh.InsertAll(empty), 0u);
    EXPECT_TRUE(fresh.empty());

    // Into an empty target, the merge is a copy in source order.
    EXPECT_EQ(fresh.InsertAll(source), source.size());
    ExpectSameRows(fresh, source);
  }
}

}  // namespace
}  // namespace pdatalog
