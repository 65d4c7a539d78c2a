#include "storage/database.h"

#include "datalog/parser.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;

TEST(DatabaseTest, GetOrCreateIsIdempotent) {
  SymbolTable symbols;
  Database db;
  Symbol p = symbols.Intern("p");
  Relation& r1 = db.GetOrCreate(p, 2);
  Relation& r2 = db.GetOrCreate(p, 2);
  EXPECT_EQ(&r1, &r2);
  EXPECT_EQ(db.relation_count(), 1u);
}

TEST(DatabaseTest, FindMissingReturnsNull) {
  SymbolTable symbols;
  Database db;
  EXPECT_EQ(db.Find(symbols.Intern("nope")), nullptr);
}

TEST(DatabaseTest, InsertCreatesRelation) {
  SymbolTable symbols;
  Database db;
  Symbol p = symbols.Intern("p");
  EXPECT_TRUE(db.Insert(p, Tuple{1, 2}, 2));
  EXPECT_FALSE(db.Insert(p, Tuple{1, 2}, 2));
  EXPECT_EQ(db.Find(p)->size(), 1u);
}

TEST(DatabaseTest, LoadFactsFromProgram) {
  SymbolTable symbols;
  Program program = ParseOrDie("par(a, b).\npar(b, c).\nsolo(x).\n", &symbols);
  Database db;
  ASSERT_TRUE(db.LoadFacts(program).ok());
  EXPECT_EQ(db.Find(symbols.Lookup("par"))->size(), 2u);
  EXPECT_EQ(db.Find(symbols.Lookup("solo"))->size(), 1u);
}

TEST(DatabaseTest, LoadFactsDeduplicates) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(a).\np(a).\n", &symbols);
  Database db;
  ASSERT_TRUE(db.LoadFacts(program).ok());
  EXPECT_EQ(db.Find(symbols.Lookup("p"))->size(), 1u);
}

TEST(DatabaseTest, MoveTransfersRelations) {
  SymbolTable symbols;
  Database db;
  Symbol p = symbols.Intern("p");
  db.Insert(p, Tuple{3}, 1);
  Database moved = std::move(db);
  ASSERT_NE(moved.Find(p), nullptr);
  EXPECT_EQ(moved.Find(p)->size(), 1u);
}

TEST(DatabaseTest, ReleaseAndAdoptMoveARelation) {
  SymbolTable symbols;
  Database from;
  Symbol p = symbols.Intern("p");
  Symbol q = symbols.Intern("q");
  from.Insert(p, Tuple{3}, 1);
  const Relation* original = from.Find(p);
  std::unique_ptr<Relation> rel = from.Release(p);
  EXPECT_EQ(rel.get(), original);
  EXPECT_EQ(from.Find(p), nullptr);
  EXPECT_EQ(from.Release(p), nullptr);

  Database to;
  to.Insert(q, Tuple{1}, 1);
  Relation& adopted = to.Adopt(q, std::move(rel));  // replaces q's relation
  EXPECT_EQ(&adopted, original);
  EXPECT_EQ(to.Find(q), original);
  EXPECT_TRUE(to.Find(q)->Contains(Tuple{3}));
  EXPECT_FALSE(to.Find(q)->Contains(Tuple{1}));
}

}  // namespace
}  // namespace pdatalog
