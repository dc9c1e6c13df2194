#ifndef CROSSMINE_CORE_CLAUSE_EVAL_H_
#define CROSSMINE_CORE_CLAUSE_EVAL_H_

#include <cstdint>
#include <vector>

#include "core/literal.h"
#include "relational/database.h"

namespace crossmine {

class ThreadPool;

/// Determines which target tuples satisfy a clause (§5.3): the IDs of all
/// query tuples are propagated along the prop-path of each literal in order,
/// and IDs failing a literal's constraint are pruned. Returns a 0/1 mask
/// parallel to the target relation; tuples outside `query_mask` are 0.
///
/// This is the same machinery the trainer uses to remove covered examples,
/// so training and prediction semantics cannot diverge.
std::vector<uint8_t> ClauseSatisfiedMask(const Database& db,
                                         const Clause& clause,
                                         const std::vector<uint8_t>& query_mask);

/// `ClauseSatisfiedMask` for every clause of `clauses`, one mask per clause
/// in clause order. No clause depends on another (§5.3 propagates the query
/// ids along each clause's path on its own), so with a `pool` the clauses
/// fan out across its lanes, each writing only its own result slot; the
/// result is identical at any lane count. A null `pool` evaluates them in
/// order on the calling thread.
std::vector<std::vector<uint8_t>> EvaluateClauses(
    const Database& db, const std::vector<Clause>& clauses,
    const std::vector<uint8_t>& query_mask, ThreadPool* pool);

/// Lanes worth one `EvaluateClauses` call over `query_size` ids of a
/// `universe`-wide target relation: `ThreadPool::Resolve(num_threads)`
/// capped at `num_clauses`, but 1 when the caller already runs on a pool
/// lane (`ThreadPool::InsideTask`: serve lanes, shard workers) or when the
/// query is below the dense break-even `IdSetStore::BitmapThreshold`
/// (point queries and single-id `Explain`), where per-call lanes cost more
/// than they save.
int ClauseEvalLanes(int num_threads, size_t num_clauses, uint64_t query_size,
                    TupleId universe);

}  // namespace crossmine

#endif  // CROSSMINE_CORE_CLAUSE_EVAL_H_
