#include "core/clause_eval.h"

#include <algorithm>
#include <functional>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/constraint_eval.h"
#include "core/idset_store.h"
#include "core/propagation.h"

namespace crossmine {

std::vector<uint8_t> ClauseSatisfiedMask(
    const Database& db, const Clause& clause,
    const std::vector<uint8_t>& query_mask) {
  TupleId num_targets = db.target_relation().num_tuples();
  CM_CHECK(query_mask.size() == num_targets);

  std::vector<uint8_t> alive = query_mask;
  std::vector<IdSetStore> node_idsets;
  node_idsets.reserve(clause.nodes().size());
  node_idsets.emplace_back().InitIdentity(alive);

  // The last literal that reads each node, as its prop-path source or its
  // constraint node; after that literal the node's idsets are freed rather
  // than carried (and compacted) to the end of the clause.
  const std::vector<ComplexLiteral>& literals = clause.literals();
  std::vector<size_t> last_use(clause.nodes().size(), 0);
  for (size_t l = 0; l < literals.size(); ++l) {
    last_use[static_cast<size_t>(literals[l].source_node)] = l;
    last_use[static_cast<size_t>(literals[l].ConstraintNode())] = l;
  }

  std::vector<uint8_t> satisfied(num_targets, 0);
  PropagationScratch scratch;  // merge buffers shared by every hop below
  for (size_t l = 0; l < literals.size(); ++l) {
    const ComplexLiteral& lit = literals[l];
    // Materialize the literal's path nodes. Nodes are created in literal
    // order, so the source node is always materialized already.
    CM_CHECK(static_cast<size_t>(lit.source_node) < node_idsets.size());
    const IdSetStore* cur = &node_idsets[static_cast<size_t>(lit.source_node)];
    for (size_t i = 0; i < lit.edge_path.size(); ++i) {
      const JoinEdge& edge =
          db.edges()[static_cast<size_t>(lit.edge_path[i])];
      // Prediction must be exact: no fan-out limits here.
      PropagationResult hop = PropagateIds(db, edge, *cur, &alive, {}, &scratch);
      CM_CHECK(hop.ok);
      CM_CHECK(node_idsets.size() ==
               static_cast<size_t>(lit.path_nodes[i]));
      node_idsets.push_back(std::move(hop.idsets));
      cur = &node_idsets.back();
    }

    int32_t cnode = lit.ConstraintNode();
    const Relation& rel =
        db.relation(clause.nodes()[static_cast<size_t>(cnode)].relation);
    ApplyConstraint(rel, lit.constraint, alive,
                    &node_idsets[static_cast<size_t>(cnode)], &satisfied);
    bool any = false;
    for (TupleId t = 0; t < num_targets; ++t) {
      alive[t] = alive[t] && satisfied[t];
      any = any || alive[t];
    }
    if (!any) break;
    for (size_t n = 0; n < node_idsets.size(); ++n) {
      if (last_use[n] > l) {
        node_idsets[n].FilterAndCompact(alive);
      } else {
        node_idsets[n].Free();
      }
    }
  }
  return alive;
}

std::vector<std::vector<uint8_t>> EvaluateClauses(
    const Database& db, const std::vector<Clause>& clauses,
    const std::vector<uint8_t>& query_mask, ThreadPool* pool) {
  std::vector<std::vector<uint8_t>> masks(clauses.size());
  if (pool == nullptr) {
    for (size_t i = 0; i < clauses.size(); ++i) {
      masks[i] = ClauseSatisfiedMask(db, clauses[i], query_mask);
    }
    return masks;
  }
  std::vector<std::function<void(int)>> tasks;
  tasks.reserve(clauses.size());
  for (size_t i = 0; i < clauses.size(); ++i) {
    tasks.push_back([&, i](int) {
      masks[i] = ClauseSatisfiedMask(db, clauses[i], query_mask);
    });
  }
  CM_CHECK(pool->RunTasks(tasks));
  return masks;
}

int ClauseEvalLanes(int num_threads, size_t num_clauses, uint64_t query_size,
                    TupleId universe) {
  if (ThreadPool::InsideTask() ||
      query_size < IdSetStore::BitmapThreshold(universe)) {
    return 1;
  }
  return static_cast<int>(std::max<size_t>(
      1, std::min<size_t>(num_clauses,
                          static_cast<size_t>(ThreadPool::Resolve(num_threads)))));
}

}  // namespace crossmine
