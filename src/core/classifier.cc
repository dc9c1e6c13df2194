#include "core/classifier.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/clause_builder.h"
#include "core/clause_eval.h"
#include "core/foil_gain.h"
#include "core/model_io.h"
#include "core/sampling.h"
#include "relational/index_cache.h"

namespace crossmine {

Status CrossMineClassifier::Train(const Database& db,
                                  const std::vector<TupleId>& train_ids) {
  if (!db.finalized()) {
    return Status::FailedPrecondition("database not finalized");
  }
  if (train_ids.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  TupleId num_targets = db.target_relation().num_tuples();
  for (TupleId id : train_ids) {
    if (id >= num_targets) {
      return Status::OutOfRange("train id beyond target relation");
    }
  }

  trained_fingerprint_ = 0;
  clauses_.clear();
  num_classes_ = db.num_classes();

  ScopedMetricTimer wall(metrics_, "train.wall_seconds");
  TouchStandardTrainMetrics(metrics_);
  if (metrics_ != nullptr) {
    for (ClassId cls = 0; cls < num_classes_; ++cls) {
      metrics_->counter(StrFormat("train.clauses_built.class_%d", cls));
    }
  }

  std::vector<uint8_t> in_train(num_targets, 0);
  for (TupleId id : train_ids) in_train[id] = 1;

  // Default class = training majority.
  std::vector<uint32_t> class_count(static_cast<size_t>(num_classes_), 0);
  for (TupleId id : train_ids) {
    ++class_count[static_cast<size_t>(db.labels()[id])];
  }
  default_class_ = static_cast<ClassId>(
      std::max_element(class_count.begin(), class_count.end()) -
      class_count.begin());

  // One worker pool for the whole training run; the clause-search hot path
  // shares it across classes and clauses. `num_threads == 1` (or a 1-CPU
  // host with the `0` auto default) never spawns a thread.
  int num_threads = ThreadPool::Resolve(options_.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  // One-vs-rest: learn clauses for every class (§5.3).
  const IndexCache::Stats index_stats_before = IndexCache::Global().stats();
  const uint64_t materializations_before =
      ColumnMaterializationCount().load(std::memory_order_relaxed);
  Rng rng(options_.seed);
  for (ClassId cls = 0; cls < num_classes_; ++cls) {
    if (class_count[static_cast<size_t>(cls)] == 0) continue;
    std::vector<uint8_t> positive(num_targets, 0);
    for (TupleId id : train_ids) {
      if (db.labels()[id] == cls) positive[id] = 1;
    }
    TrainOneClass(db, cls, positive, in_train, rng.Next(), pool.get());
  }
  if (metrics_ != nullptr) {
    // The IndexCache's counters are process-cumulative, so report *deltas*
    // over this Train call (repeat Train calls on warm indexes add zero)
    // plus the cache-wide residency gauges: current/peak cached bytes and
    // the configured budget high-water mark.
    const IndexCache& cache = IndexCache::Global();
    const IndexCache::Stats after = cache.stats();
    metrics_->timer("train.index.build_seconds")
        ->AddSeconds(after.build_seconds - index_stats_before.build_seconds);
    metrics_->counter("train.index.bytes")->MaxWith(after.current_bytes);
    metrics_->counter("train.index.peak_bytes")->MaxWith(after.peak_bytes);
    metrics_->counter("train.index.evictions")
        ->Add(after.evictions - index_stats_before.evictions);
    metrics_->counter("train.index.rebuilds")
        ->Add(after.rebuilds - index_stats_before.rebuilds);
    metrics_->counter("train.index.budget_bytes")
        ->MaxWith(cache.budget_bytes());
    // Copy-on-write audit: a read-only train must never materialize a
    // borrowed column (tests pin this at zero for `.cmdb` databases).
    metrics_->counter("storage.column.materializations")
        ->Add(ColumnMaterializationCount().load(std::memory_order_relaxed) -
              materializations_before);
  }

  // §5.3: estimate each clause's accuracy by predicting on the training
  // set — the clause's support over *all* training tuples, not just the
  // population it was built from. The clauses are independent, so they
  // share the training pool's lanes.
  if (options_.reestimate_accuracy_on_training_set) {
    ScopedMetricTimer reestimate(metrics_, "train.phase.reestimation_seconds");
    std::vector<std::vector<uint8_t>> masks =
        EvaluateClauses(db, clauses_, in_train, pool.get());
    for (size_t c = 0; c < clauses_.size(); ++c) {
      Clause& clause = clauses_[c];
      uint32_t sup_pos = 0, sup_neg = 0;
      for (TupleId t = 0; t < num_targets; ++t) {
        if (!masks[c][t]) continue;
        if (db.labels()[t] == clause.predicted_class) {
          ++sup_pos;
        } else {
          ++sup_neg;
        }
      }
      clause.sup_pos = sup_pos;
      clause.sup_neg = sup_neg;
      clause.accuracy = LaplaceAccuracy(sup_pos, sup_neg, num_classes_);
    }
  }
  trained_fingerprint_ = SchemaFingerprint(db);
  return Status::OK();
}

void CrossMineClassifier::TrainOneClass(const Database& db, ClassId cls,
                                        const std::vector<uint8_t>& positive,
                                        const std::vector<uint8_t>& in_train,
                                        uint64_t seed, ThreadPool* pool) {
  TupleId num_targets = db.target_relation().num_tuples();
  Rng rng(seed);

  // Uncovered positives (shrinks clause by clause) and the fixed negative
  // pool (negatives are never removed — Algorithm 1).
  std::vector<TupleId> remaining_pos;
  std::vector<TupleId> negatives;
  for (TupleId t = 0; t < num_targets; ++t) {
    if (!in_train[t]) continue;
    if (positive[t]) {
      remaining_pos.push_back(t);
    } else {
      negatives.push_back(t);
    }
  }
  size_t initial_pos = remaining_pos.size();
  if (initial_pos == 0) return;

  int built = 0;
  while (static_cast<double>(remaining_pos.size()) >
             options_.min_pos_fraction_left *
                 static_cast<double>(initial_pos) &&
         built < options_.max_clauses_per_class) {
    // Negative tuple sampling (§6): cap negatives at
    // NEG_POS_RATIO · |pos| and at MAX_NUM_NEGATIVE.
    std::vector<uint8_t> alive(num_targets, 0);
    uint64_t sampled_neg = 0;
    {
      ScopedMetricTimer sampling(metrics_, "train.phase.sampling_seconds");
      uint64_t neg_budget = negatives.size();
      if (options_.use_sampling) {
        uint64_t ratio_cap = static_cast<uint64_t>(
            options_.neg_pos_ratio *
            static_cast<double>(remaining_pos.size()));
        neg_budget = std::min<uint64_t>(neg_budget, ratio_cap);
        neg_budget = std::min<uint64_t>(neg_budget, options_.max_num_negative);
        // Keep a handful of negatives so clause quality remains measurable.
        neg_budget = std::max<uint64_t>(
            neg_budget, std::min<uint64_t>(negatives.size(), 10));
      }

      for (TupleId t : remaining_pos) alive[t] = 1;
      if (neg_budget >= negatives.size()) {
        for (TupleId t : negatives) alive[t] = 1;
        sampled_neg = negatives.size();
      } else {
        std::vector<uint32_t> pick = rng.SampleWithoutReplacement(
            static_cast<uint32_t>(negatives.size()),
            static_cast<uint32_t>(neg_budget));
        for (uint32_t i : pick) alive[negatives[i]] = 1;
        sampled_neg = neg_budget;
      }
      if (metrics_ != nullptr) {
        metrics_->counter("train.sampling.rounds")->Add();
        metrics_->counter("train.sampling.negatives_considered")
            ->Add(negatives.size());
        metrics_->counter("train.sampling.negatives_kept")->Add(sampled_neg);
        if (sampled_neg < negatives.size()) {
          metrics_->counter("train.sampling.rounds_subsampled")->Add();
        }
      }
    }

    ClauseBuilder builder(&db, &positive, &options_, pool, metrics_);
    uint32_t build_pos = static_cast<uint32_t>(remaining_pos.size());
    Clause clause = builder.Build(std::move(alive));
    if (clause.empty()) break;

    clause.predicted_class = cls;
    clause.build_pos = build_pos;
    clause.build_neg = static_cast<uint32_t>(sampled_neg);
    clause.sup_pos = builder.final_pos();
    // sup−: exact when all negatives were in scope, otherwise the §6 safe
    // estimate from the sampled counts.
    clause.sup_neg = SafeNegativeEstimate(negatives.size(), sampled_neg,
                                          builder.final_neg());
    clause.accuracy =
        LaplaceAccuracy(clause.sup_pos, clause.sup_neg, num_classes_);

    // Remove covered positives.
    const std::vector<uint8_t>& covered = builder.final_alive();
    size_t before = remaining_pos.size();
    remaining_pos.erase(
        std::remove_if(remaining_pos.begin(), remaining_pos.end(),
                       [&covered](TupleId t) { return covered[t] != 0; }),
        remaining_pos.end());
    clauses_.push_back(std::move(clause));
    ++built;
    if (metrics_ != nullptr) {
      metrics_->counter("train.clauses_built")->Add();
      metrics_->counter(StrFormat("train.clauses_built.class_%d", cls))
          ->Add();
    }
    if (remaining_pos.size() == before) break;  // no progress, stop
  }
}

std::vector<ClassId> CrossMineClassifier::Predict(
    const Database& db, const std::vector<TupleId>& ids) const {
  ScopedMetricTimer wall(metrics_, "predict.wall_seconds");
  TouchStandardPredictMetrics(metrics_);
  TupleId num_targets = db.target_relation().num_tuples();
  std::vector<uint8_t> query(num_targets, 0);
  for (TupleId id : ids) {
    CM_CHECK(id < num_targets);
    query[id] = 1;
  }

  // Every clause is evaluated on the whole query: whether a target
  // satisfies a clause does not depend on the other query ids, so the
  // clauses can run on parallel lanes and every mode, the decision list
  // included, decides per target afterwards.
  int lanes = ClauseEvalLanes(options_.num_threads, clauses_.size(),
                              ids.size(), num_targets);
  std::unique_ptr<ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);
  std::vector<std::vector<uint8_t>> masks =
      EvaluateClauses(db, clauses_, query, pool.get());

  std::vector<ClassId> out;
  out.reserve(ids.size());
  std::vector<int> satisfied;
  std::vector<double> votes;
  uint64_t fallbacks = 0;
  std::array<uint64_t, 9> hist{};  // 0..7 satisfied clauses, then 8+
  for (TupleId id : ids) {
    satisfied.clear();
    for (size_t c = 0; c < masks.size(); ++c) {
      if (masks[c][id]) satisfied.push_back(static_cast<int>(c));
    }
    out.push_back(Decide(satisfied, &votes).predicted);
    if (satisfied.empty()) ++fallbacks;
    ++hist[std::min<size_t>(satisfied.size(), 8)];
  }

  if (metrics_ != nullptr) {
    metrics_->counter("predict.tuples")->Add(ids.size());
    metrics_->counter("predict.clauses_evaluated")
        ->Add(clauses_.size() * ids.size());
    metrics_->counter("predict.default_fallbacks")->Add(fallbacks);
    for (size_t b = 0; b < hist.size(); ++b) {
      if (hist[b] == 0) continue;
      metrics_
          ->counter(b < 8 ? StrFormat("predict.satisfied.%zu", b)
                          : std::string("predict.satisfied.8plus"))
          ->Add(hist[b]);
    }
  }
  return out;
}

CrossMineClassifier::Verdict CrossMineClassifier::Decide(
    const std::vector<int>& satisfied, std::vector<double>* votes) const {
  Verdict verdict{default_class_, -1};
  if (satisfied.empty()) return verdict;
  // The most accurate satisfied clause `eligible` accepts (the first on
  // ties), or -1.
  auto most_accurate = [&](auto&& eligible) {
    int index = -1;
    double best = -1.0;
    for (int i : satisfied) {
      const Clause& clause = clauses_[static_cast<size_t>(i)];
      if (eligible(clause) && clause.accuracy > best) {
        best = clause.accuracy;
        index = i;
      }
    }
    return index;
  };
  switch (options_.prediction_mode) {
    case PredictionMode::kBestClause:
      // §5.3: the most accurate satisfied clause wins.
      verdict.clause_index = most_accurate([](const Clause&) { return true; });
      break;
    case PredictionMode::kWeightedVote: {
      // Satisfied clauses vote with their edge over chance; the deciding
      // clause is the winning class's most accurate satisfied clause.
      double chance = 1.0 / std::max(1, num_classes_);
      votes->assign(static_cast<size_t>(std::max(1, num_classes_)), 0.0);
      for (int i : satisfied) {
        const Clause& clause = clauses_[static_cast<size_t>(i)];
        (*votes)[static_cast<size_t>(clause.predicted_class)] +=
            std::max(0.0, clause.accuracy - chance);
      }
      ClassId winner = static_cast<ClassId>(
          std::max_element(votes->begin(), votes->end()) - votes->begin());
      verdict.predicted = winner;
      verdict.clause_index = most_accurate([winner](const Clause& clause) {
        return clause.predicted_class == winner;
      });
      return verdict;
    }
    case PredictionMode::kDecisionList:
      // First satisfied clause in learning order wins.
      verdict.clause_index = satisfied.front();
      break;
  }
  if (verdict.clause_index >= 0) {
    verdict.predicted =
        clauses_[static_cast<size_t>(verdict.clause_index)].predicted_class;
  }
  return verdict;
}

ClassId CrossMineClassifier::PredictOne(const Database& db, TupleId id) const {
  return Predict(db, {id})[0];
}

CrossMineClassifier::Explanation CrossMineClassifier::Explain(
    const Database& db, TupleId id) const {
  TupleId num_targets = db.target_relation().num_tuples();
  CM_CHECK(id < num_targets);
  std::vector<uint8_t> query(num_targets, 0);
  query[id] = 1;

  // One pass: the satisfied clauses feed the same `Decide` as bulk Predict.
  Explanation out;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (ClauseSatisfiedMask(db, clauses_[i], query)[id]) {
      out.satisfied.push_back(static_cast<int>(i));
    }
  }
  std::vector<double> votes;
  Verdict verdict = Decide(out.satisfied, &votes);
  out.predicted = verdict.predicted;
  out.clause_index = verdict.clause_index;
  return out;
}

std::string CrossMineClassifier::ToString(const Database& db) const {
  std::string out = StrFormat("CrossMine model: %zu clauses, default class %d\n",
                              clauses_.size(), default_class_);
  for (const Clause& clause : clauses_) {
    out += StrFormat("  [acc=%.3f sup+=%g sup-=%g] ", clause.accuracy,
                     clause.sup_pos, clause.sup_neg);
    out += clause.ToString(db);
    out += "\n";
  }
  return out;
}

}  // namespace crossmine
