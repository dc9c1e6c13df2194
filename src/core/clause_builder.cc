#include "core/clause_builder.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <utility>

#include "common/macros.h"
#include "core/constraint_eval.h"
#include "core/propagation.h"
#include "relational/index_cache.h"

namespace crossmine {

namespace {

inline void Bump(Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) counter->Add(n);
}

}  // namespace

ClauseBuilder::ClauseBuilder(const Database* db,
                             const std::vector<uint8_t>* positive,
                             const CrossMineOptions* opts, ThreadPool* pool,
                             MetricsRegistry* metrics)
    : db_(db),
      positive_(positive),
      opts_(opts),
      pool_(pool),
      metrics_(metrics),
      clause_(db->target()) {
  satisfied_.assign(db->target_relation().num_tuples(), 0);
  if (metrics_ != nullptr) {
    prop_cache_hits_ = metrics_->counter("train.propagation.cache_hits");
    prop_cache_refreshes_ =
        metrics_->counter("train.propagation.cache_refreshes");
    prop_cache_misses_ = metrics_->counter("train.propagation.cache_misses");
    prop_cache_evictions_ =
        metrics_->counter("train.propagation.cache_evictions");
    prop_rejected_ = metrics_->counter("train.propagation.rejected");
    search_rounds_ = metrics_->counter("train.search.rounds");
    search_tasks_ = metrics_->counter("train.search.tasks");
    scan_units_ = metrics_->counter("train.search.scan_units");
    pool_tasks_ = metrics_->counter("train.pool.tasks");
    pool_idle_ = metrics_->timer("train.pool.idle_seconds");
    literals_accepted_ = metrics_->counter("train.literals_accepted");
    peak_id_bytes_ = metrics_->counter("train.propagation.peak_id_bytes");
    arena_reuse_ = metrics_->counter("train.propagation.arena_reuse");
    prop_time_ = metrics_->timer("train.phase.propagation_seconds");
    lookahead_time_ = metrics_->timer("train.phase.lookahead_seconds");
  }
}

void ClauseBuilder::RecountAlive() {
  pos_ = neg_ = 0;
  for (size_t id = 0; id < alive_.size(); ++id) {
    if (!alive_[id]) continue;
    if ((*positive_)[id]) {
      ++pos_;
    } else {
      ++neg_;
    }
  }
}

void ClauseBuilder::WarmIndexes() const {
  // Pure prefetch: the IndexCache builds are single-flight, so parallel
  // lanes faulting the same index on demand would be correct too — warming
  // just keeps the first search round's lanes from serializing on builds.
  // Under a memory budget, prefetching the whole index set would evict as
  // fast as it fills (and thrash borrowed pages), so skip it there.
  if (IndexCache::Global().budget_bytes() != 0) return;
  for (RelId r = 0; r < db_->num_relations(); ++r) {
    const Relation& rel = db_->relation(r);
    for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
      switch (rel.schema().attr(a).kind) {
        case AttrKind::kPrimaryKey:
        case AttrKind::kForeignKey:
        case AttrKind::kCategorical:
          rel.GetAttrIndex(a);
          break;
        case AttrKind::kNumerical:
          if (opts_->use_numerical_literals) rel.GetSortedIndex(a);
          break;
      }
    }
  }
}

void ClauseBuilder::PrepareWorkers() {
  size_t lanes = static_cast<size_t>(num_lanes());
  while (searchers_.size() < lanes) {
    searchers_.emplace_back(db_, positive_);
    searchers_.back().set_metrics(metrics_);
  }
  if (prop_scratch_.size() < lanes) prop_scratch_.resize(lanes);
  for (LiteralSearcher& searcher : searchers_) {
    searcher.SetContext(&alive_, pos_, neg_);
  }
}

Clause ClauseBuilder::Build(std::vector<uint8_t> alive) {
  alive_ = std::move(alive);
  CM_CHECK(alive_.size() == db_->target_relation().num_tuples());
  RecountAlive();

  prop_cache_.clear();
  cached_slot_count_ = 0;
  search_epoch_ = 0;
  // Warm at any lane count (all hits after the first Build): lazy faulting
  // would build a thread-count-dependent subset of the pk/fk indexes, and
  // the train.index.bytes gauge is pinned thread-count invariant.
  WarmIndexes();

  // Node 0 = target relation: idset(t) = {t} for every alive target.
  node_idsets_.clear();
  node_idsets_.emplace_back().InitIdentity(alive_);

  while (clause_.length() < opts_->max_clause_length) {
    if (pos_ == 0) break;
    BestChoice best = FindBestLiteral();
    if (!best.valid() || best.cand.gain < opts_->min_foil_gain) break;
    Append(best);
    if (neg_ == 0) break;  // perfect clause: nothing left to gain
  }
  return clause_;
}

void ClauseBuilder::Consider(BestChoice* best, const CandidateLiteral& cand,
                             int32_t source_node,
                             std::vector<int32_t> edge_path) const {
  if (!cand.valid()) return;
  if (cand.gain > (best->valid() ? best->cand.gain : -1.0)) {
    best->cand = cand;
    best->source_node = source_node;
    best->edge_path = std::move(edge_path);
  }
}

uint64_t ClauseBuilder::CurrentIdBytes() {
  uint64_t bytes = 0;
  for (const IdSetStore& store : node_idsets_) bytes += store.arena_bytes();
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (const auto& [key, entry] : prop_cache_) {
    bytes += entry.result->idsets.arena_bytes();
  }
  return bytes;
}

std::shared_ptr<const PropagationResult> ClauseBuilder::GetPropagation(
    int32_t node, int32_t e, int32_t e2, const IdSetStore& src,
    const JoinEdge& edge, PropagationScratch* scratch,
    CacheUpdate* update) {
  std::array<int32_t, 3> key{node, e, e2};
  std::shared_ptr<PropagationResult> cached;
  bool current = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = prop_cache_.find(key);
    if (it != prop_cache_.end()) {
      current = it->second.epoch == search_epoch_;
      // Each key is visited by exactly one task per search round, so the
      // refresh below can safely run outside the lock.
      it->second.epoch = search_epoch_;
      cached = it->second.result;
    }
  }
  if (cached != nullptr) {
    if (current) {
      Bump(prop_cache_hits_);
      return cached;
    }
    // The alive mask only shrank since this result was computed, so an
    // in-place arena compaction reproduces a fresh `PropagateIds` exactly —
    // including the limit verdicts, which `RefreshPropagation` re-checks.
    Stopwatch refresh_watch;
    bool refreshed =
        RefreshPropagation(cached.get(), alive_, opts_->propagation_limits);
    if (prop_time_ != nullptr) {
      prop_time_->AddSeconds(refresh_watch.ElapsedSeconds());
    }
    Bump(prop_cache_refreshes_);
    Bump(arena_reuse_);  // the compaction reclaimed storage in place
    if (refreshed) return cached;
    Bump(prop_cache_evictions_);
    if (update != nullptr) {
      update->evict = true;
    } else {
      std::lock_guard<std::mutex> lock(cache_mu_);
      EvictLocked(key);
    }
    return cached;  // ok == false, matching a fresh failed propagation
  }

  Stopwatch prop_watch;
  auto fresh = std::make_shared<PropagationResult>(
      PropagateIds(*db_, edge, src, &alive_, opts_->propagation_limits,
                   scratch, opts_->use_bitmap_index));
  if (prop_time_ != nullptr) {
    prop_time_->AddSeconds(prop_watch.ElapsedSeconds());
  }
  Bump(prop_cache_misses_);
  if (!fresh->ok) Bump(prop_rejected_);
  if (fresh->ok && opts_->propagation_cache_slots > 0) {
    if (update != nullptr) {
      update->admit = fresh;
    } else {
      std::lock_guard<std::mutex> lock(cache_mu_);
      AdmitLocked(key, fresh);
    }
  }
  return fresh;
}

void ClauseBuilder::EvictLocked(const std::array<int32_t, 3>& key) {
  auto it = prop_cache_.find(key);
  if (it != prop_cache_.end()) {
    cached_slot_count_ -= it->second.slots;
    prop_cache_.erase(it);
  }
}

void ClauseBuilder::AdmitLocked(const std::array<int32_t, 3>& key,
                                std::shared_ptr<PropagationResult> result) {
  uint64_t slots = result->idsets.num_sets();
  if (cached_slot_count_ + slots <= opts_->propagation_cache_slots) {
    cached_slot_count_ += slots;
    prop_cache_[key] = {std::move(result), search_epoch_, slots};
  }
}

void ClauseBuilder::FinishTask(std::vector<CacheUpdate>* updates, size_t k,
                               size_t* cursor) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  CacheUpdate& mine = (*updates)[k];
  mine.done = true;
  if (mine.admit != nullptr && k > *cursor) {
    // Earlier tasks only add to the count, except by evicting their own
    // cached entry; if even that cannot make room, the verdict is known.
    // Dropping now rather than at its turn frees the result early without
    // changing what is admitted.
    uint64_t releasable = 0;
    for (size_t j = *cursor; j < k; ++j) {
      const CacheUpdate& u = (*updates)[j];
      if (u.done && !u.evict) continue;
      auto it = prop_cache_.find(u.key);
      if (it != prop_cache_.end()) releasable += it->second.slots;
    }
    if (cached_slot_count_ + mine.admit->idsets.num_sets() >
        opts_->propagation_cache_slots + releasable) {
      mine.admit = nullptr;
    }
  }
  for (; *cursor < updates->size() && (*updates)[*cursor].done; ++*cursor) {
    CacheUpdate& u = (*updates)[*cursor];
    if (u.evict) EvictLocked(u.key);
    if (u.admit != nullptr) AdmitLocked(u.key, std::move(u.admit));
  }
}

ClauseBuilder::BestChoice ClauseBuilder::FindBestLiteral() {
  ++search_epoch_;
  const std::vector<JoinEdge>& edges = db_->edges();

  // Enumerate candidate tasks in the exact order the sequential loops of
  // Algorithm 3 visit them; the reduction below walks the same order, so
  // ties break identically at every thread count.
  std::vector<SearchTask> tasks;
  for (int32_t n = 0; n < static_cast<int32_t>(clause_.nodes().size()); ++n) {
    const ClauseNode& node = clause_.nodes()[static_cast<size_t>(n)];
    tasks.push_back({n, -1, -1, -1});
    for (int32_t e : db_->OutEdges(node.relation)) {
      const JoinEdge& edge = edges[static_cast<size_t>(e)];
      int32_t parent = static_cast<int32_t>(tasks.size());
      tasks.push_back({n, e, -1, -1});
      if (!opts_->look_one_ahead) continue;
      // Look-one-ahead: a second hop through a foreign key of the reached
      // relation (k' ≠ k, Algorithm 3).
      for (int32_t e2 : db_->OutEdges(edge.to_rel)) {
        const JoinEdge& edge2 = edges[static_cast<size_t>(e2)];
        if (edge2.kind != JoinKind::kFkToPk) continue;
        if (edge2.from_attr == edge.to_attr) continue;
        tasks.push_back({n, e, e2, parent});
      }
    }
  }

  Bump(search_rounds_);
  Bump(search_tasks_, tasks.size());

  // Each task scans the relation its path ends at.
  std::vector<ScanJob> jobs(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const SearchTask& t = tasks[i];
    int32_t last = t.edge2 >= 0 ? t.edge2 : t.edge;
    jobs[i].rel = last < 0
                      ? clause_.nodes()[static_cast<size_t>(t.node)].relation
                      : edges[static_cast<size_t>(last)].to_rel;
    LiteralSearcher::ScanUnits(db_->relation(jobs[i].rel), *opts_,
                               &jobs[i].units);
    jobs[i].results.resize(jobs[i].units.size());
    jobs[i].left = jobs[i].units.size();
  }
  std::vector<std::shared_ptr<const PropagationResult>> hop1(tasks.size());
  PrepareWorkers();

  // Propagates task `i` (hops 1 and 2) and points its job at the idsets to
  // scan; false when there is nothing to scan.
  auto prepare_scan = [&](size_t i, int worker, CacheUpdate* update) {
    const SearchTask& t = tasks[i];
    ScanJob& job = jobs[i];
    if (t.edge < 0) {
      // Hop 0: constraint on the active node itself (empty prop-path).
      // Node 0 is the target relation, whose store stays the identity
      // (`idset(t) = {t}` iff alive) through every FilterAndCompact.
      job.idsets = &node_idsets_[static_cast<size_t>(t.node)];
      job.identity = t.node == 0;
    } else {
      // Hop 1 propagates along a join edge leaving the node; hop 2 (look-
      // ahead) continues through the parent task's propagation.
      const IdSetStore* src = &node_idsets_[static_cast<size_t>(t.node)];
      int32_t e = t.edge;
      if (t.edge2 >= 0) {
        const std::shared_ptr<const PropagationResult>& parent =
            hop1[static_cast<size_t>(t.parent)];
        if (parent == nullptr || !parent->ok) return false;
        src = &parent->idsets;
        e = t.edge2;
      }
      const JoinEdge& edge = edges[static_cast<size_t>(e)];
      std::shared_ptr<const PropagationResult> p = GetPropagation(
          t.node, t.edge, t.edge2, *src, edge,
          &prop_scratch_[static_cast<size_t>(worker)], update);
      if (t.edge2 < 0) hop1[i] = p;
      if (!p->ok || job.units.empty()) return false;
      job.idsets = &p->idsets;
      job.hold = std::move(p);
    }
    Bump(scan_units_, job.units.size());
    return !job.units.empty();
  };

  // Claims and runs `job`'s units until none is left unclaimed.
  auto run_units = [&](ScanJob* job, int worker) {
    LiteralSearcher& searcher = searchers_[static_cast<size_t>(worker)];
    for (size_t u; (u = job->next.fetch_add(1)) < job->units.size();) {
      job->results[u] = searcher.ScanUnit(job->rel, job->units[u],
                                          *job->idsets, *opts_,
                                          job->identity);
      if (job->left.fetch_sub(1) == 1) job->hold.reset();
    }
  };

  // Two waves: hop-0/hop-1 tasks first, then the hop-2 tasks that consume
  // the first wave's propagations. Within a wave every lane claims the next
  // task in enumeration order (claimed out of order, a fresh propagation
  // would wait longer for its in-order cache admission, holding memory),
  // propagates, publishes the task's scan units and scans them; a lane
  // finding no task left takes published units that are still unclaimed,
  // and waits only while a propagation may yet publish some. A lane thus
  // starts a propagation only once its last one's units are all claimed,
  // and each propagation is released with its last unit. Cache updates
  // are applied in task order (`FinishTask`), so which fresh results fit
  // the budget never depends on which lane finished first.
  auto run_wave = [&](bool lookahead) {
    std::vector<size_t> wave;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if ((tasks[i].edge2 >= 0) == lookahead) wave.push_back(i);
    }
    std::vector<CacheUpdate> updates(wave.size());
    for (size_t k = 0; k < wave.size(); ++k) {
      const SearchTask& t = tasks[wave[k]];
      updates[k].key = {t.node, t.edge, t.edge2};
    }
    size_t cursor = 0;
    std::mutex mu;
    std::condition_variable cv;
    // Guarded by `mu`: the next task of the wave to hand out, tasks claimed
    // but not yet published, lanes blocked in `cv`, and published jobs.
    size_t next_task = 0;
    int propagating = 0;
    int waiting = 0;
    std::deque<ScanJob*> open;
    std::atomic<uint64_t> busy_ns{0};
    const bool timed = pool_idle_ != nullptr;

    // True once the lane has work (a task, or a published unit to take)
    // or the wave has none left to publish; the caller holds `mu`.
    auto ready = [&] {
      while (!open.empty() &&
             open.front()->next.load() >= open.front()->units.size()) {
        open.pop_front();
      }
      return next_task < wave.size() || !open.empty() || propagating == 0;
    };
    auto lane = [&](int worker) {
      for (;;) {
        size_t k = wave.size();
        ScanJob* steal = nullptr;
        {
          std::unique_lock<std::mutex> lock(mu);
          if (!ready()) {
            ++waiting;
            cv.wait(lock, ready);
            --waiting;
          }
          if (next_task < wave.size()) {
            k = next_task++;
            ++propagating;
          } else if (!open.empty()) {
            steal = open.front();
          } else {
            return;
          }
        }
        Stopwatch watch;
        ScanJob* job = steal;
        if (job == nullptr) {
          ScanJob& mine = jobs[wave[k]];
          bool scan = prepare_scan(wave[k], worker, &updates[k]);
          FinishTask(&updates, k, &cursor);
          std::lock_guard<std::mutex> lock(mu);
          --propagating;
          if (scan) {
            open.push_back(&mine);
            job = &mine;
          }
          if (waiting > 0 && (scan || propagating == 0)) cv.notify_all();
        }
        if (job != nullptr) run_units(job, worker);
        if (timed) {
          busy_ns.fetch_add(
              static_cast<uint64_t>(watch.ElapsedSeconds() * 1e9));
        }
      }
    };

    Stopwatch wall;
    if (num_lanes() == 1) {
      lane(0);
    } else {
      std::vector<std::function<void(int)>> fns(
          static_cast<size_t>(num_lanes()), lane);
      Bump(pool_tasks_, wave.size());
      pool_->RunTasks(fns);
    }
    if (timed) {
      // Lane idle time: the wave's wall on every lane, less the time lanes
      // spent propagating and scanning.
      pool_idle_->AddSeconds(num_lanes() * wall.ElapsedSeconds() -
                             static_cast<double>(busy_ns.load()) * 1e-9);
    }
  };
  run_wave(/*lookahead=*/false);
  {
    // Look-ahead cost, as wall time of the hop-2 wave. Its propagation and
    // scan time is *also* accumulated into the propagation / literal-search
    // phase timers; this key answers "what does §5.2 look-one-ahead cost"
    // on its own.
    Stopwatch lookahead_watch;
    run_wave(/*lookahead=*/true);
    if (lookahead_time_ != nullptr) {
      lookahead_time_->AddSeconds(lookahead_watch.ElapsedSeconds());
    }
  }

  // Deterministic reduction in task-enumeration (= sequential-loop) order,
  // and within a task in scan-unit order.
  BestChoice best;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const SearchTask& t = tasks[i];
    CandidateLiteral scored;
    for (const CandidateLiteral& cand : jobs[i].results) {
      if (cand.gain > scored.gain) scored = cand;
    }
    std::vector<int32_t> path;
    if (t.edge >= 0) path.push_back(t.edge);
    if (t.edge2 >= 0) path.push_back(t.edge2);
    Consider(&best, scored, t.node, std::move(path));
  }
  // All tasks have joined: sample the arena footprint at this quiescent
  // point. The state here is identical at any thread count, so the peak is
  // thread-count invariant like every other counter.
  if (peak_id_bytes_ != nullptr) peak_id_bytes_->MaxWith(CurrentIdBytes());
  return best;
}

void ClauseBuilder::Append(const BestChoice& choice) {
  Bump(literals_accepted_);
  ComplexLiteral lit;
  lit.source_node = choice.source_node;
  lit.edge_path = choice.edge_path;
  lit.constraint = choice.cand.constraint;
  lit.gain = choice.cand.gain;
  const ComplexLiteral& added = clause_.Append(*db_, std::move(lit));

  // Materialize idset stores for the nodes the prop-path created, reusing
  // the propagations the search just scored (cache hits at the current
  // epoch).
  CM_CHECK(added.edge_path.size() <= 2);
  const IdSetStore* cur = &node_idsets_[static_cast<size_t>(added.source_node)];
  for (size_t h = 0; h < added.edge_path.size(); ++h) {
    int32_t edge_id = added.edge_path[h];
    const JoinEdge& edge = db_->edges()[static_cast<size_t>(edge_id)];
    std::shared_ptr<const PropagationResult> hop = GetPropagation(
        added.source_node, added.edge_path[0], h == 0 ? -1 : edge_id, *cur,
        edge, prop_scratch_.empty() ? nullptr : &prop_scratch_[0]);
    // The same propagation succeeded during the search.
    CM_CHECK_MSG(hop->ok, "propagation failed while appending literal");
    node_idsets_.push_back(hop->idsets);  // copy: the cache keeps its own
    cur = &node_idsets_.back();
  }

  // Apply the constraint at the node it targets; shrink the alive set and
  // refresh every node's idsets ("update IDs on every active relation") —
  // one in-place compaction per node store.
  int32_t cnode = added.ConstraintNode();
  const Relation& rel =
      db_->relation(clause_.nodes()[static_cast<size_t>(cnode)].relation);
  ApplyConstraint(rel, added.constraint, alive_,
                  &node_idsets_[static_cast<size_t>(cnode)], &satisfied_,
                  opts_->use_bitmap_index);
  for (size_t id = 0; id < alive_.size(); ++id) {
    alive_[id] = alive_[id] && satisfied_[id];
  }
  RecountAlive();
  for (IdSetStore& store : node_idsets_) {
    store.FilterAndCompact(alive_);
    Bump(arena_reuse_);
  }
  if (peak_id_bytes_ != nullptr) peak_id_bytes_->MaxWith(CurrentIdBytes());
}

}  // namespace crossmine
