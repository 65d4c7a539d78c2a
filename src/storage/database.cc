#include "storage/database.h"

#include <cassert>
#include <utility>

namespace pdatalog {

Relation& Database::GetOrCreate(Symbol predicate, int arity) {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) {
    it = relations_.emplace(predicate, std::make_unique<Relation>(arity))
             .first;
  }
  assert(it->second->arity() == arity);
  return *it->second;
}

Relation* Database::Find(Symbol predicate) {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Database::Find(Symbol predicate) const {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : it->second.get();
}

bool Database::Insert(Symbol predicate, const Tuple& tuple, int arity) {
  return GetOrCreate(predicate, arity).Insert(tuple);
}

std::unique_ptr<Relation> Database::Release(Symbol predicate) {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) return nullptr;
  std::unique_ptr<Relation> relation = std::move(it->second);
  relations_.erase(it);
  return relation;
}

Relation& Database::Adopt(Symbol predicate,
                          std::unique_ptr<Relation> relation) {
  assert(relation != nullptr);
  std::unique_ptr<Relation>& slot = relations_[predicate];
  slot = std::move(relation);
  return *slot;
}

Status Database::LoadFacts(const Program& program) {
  for (const Atom& fact : program.facts) {
    if (!fact.IsGround()) {
      return Status::InvalidArgument("fact is not ground: " +
                                     ToString(fact, *program.symbols));
    }
    Value buf[32];
    if (fact.arity() > 32) {
      return Status::InvalidArgument("fact arity exceeds 32");
    }
    for (int i = 0; i < fact.arity(); ++i) buf[i] = fact.args[i].sym;
    Insert(fact.predicate, Tuple(buf, fact.arity()), fact.arity());
  }
  return Status::Ok();
}

}  // namespace pdatalog
