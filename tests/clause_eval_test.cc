#include "core/clause_eval.h"

#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/classifier.h"
#include "core/idset_store.h"
#include "datagen/financial.h"
#include "datagen/synthetic.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::BruteForceClauseSatisfied;
using testing::Fig2Database;
using testing::MakeFig2Database;
using testing::MakeRandomDatabase;

int32_t FindEdgeId(const Database& db, RelId from, AttrId from_attr,
                   RelId to) {
  for (size_t e = 0; e < db.edges().size(); ++e) {
    const JoinEdge& edge = db.edges()[e];
    if (edge.from_rel == from && edge.from_attr == from_attr &&
        edge.to_rel == to) {
      return static_cast<int32_t>(e);
    }
  }
  return -1;
}

Clause MonthlyClause(const Fig2Database& f) {
  Clause c(f.db.target());
  ComplexLiteral lit;
  lit.source_node = 0;
  lit.edge_path = {FindEdgeId(f.db, f.loan, f.loan_account, f.account)};
  lit.constraint.attr = f.account_frequency;
  lit.constraint.cmp = CmpOp::kEq;
  lit.constraint.category = f.monthly;
  c.Append(f.db, lit);
  return c;
}

TEST(ClauseEvalTest, PaperFig2ClauseCoverage) {
  // "Loan(+) :- [Loan.account_id -> Account.account_id, frequency =
  // monthly]" is satisfied by loans 1, 2, 4, 5 (ids 0, 1, 3, 4).
  Fig2Database f = MakeFig2Database();
  std::vector<uint8_t> all(5, 1);
  std::vector<uint8_t> mask = ClauseSatisfiedMask(f.db, MonthlyClause(f), all);
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 1, 0, 1, 1}));
}

TEST(ClauseEvalTest, QueryMaskRestrictsEvaluation) {
  Fig2Database f = MakeFig2Database();
  std::vector<uint8_t> query{0, 1, 1, 0, 0};
  std::vector<uint8_t> mask =
      ClauseSatisfiedMask(f.db, MonthlyClause(f), query);
  EXPECT_EQ(mask, (std::vector<uint8_t>{0, 1, 0, 0, 0}));
}

TEST(ClauseEvalTest, EmptyClauseSatisfiedByAllQueried) {
  Fig2Database f = MakeFig2Database();
  Clause c(f.db.target());
  std::vector<uint8_t> query{1, 0, 1, 0, 1};
  EXPECT_EQ(ClauseSatisfiedMask(f.db, c, query), query);
}

TEST(ClauseEvalTest, MultiLiteralConjunction) {
  // monthly AND duration <= 12: loans {0,1,3,4} ∩ {0,1} = {0,1}.
  Fig2Database f = MakeFig2Database();
  Clause c = MonthlyClause(f);
  ComplexLiteral lit;
  lit.source_node = 0;
  lit.constraint.attr = f.loan_duration;
  lit.constraint.cmp = CmpOp::kLe;
  lit.constraint.threshold = 12;
  c.Append(f.db, lit);
  std::vector<uint8_t> all(5, 1);
  EXPECT_EQ(ClauseSatisfiedMask(f.db, c, all),
            (std::vector<uint8_t>{1, 1, 0, 0, 0}));
}

TEST(ClauseEvalTest, VariableBindingOnSameNode) {
  // Two constraints on the same Account node must bind the SAME account:
  // frequency = monthly AND date >= 950101 — only account 124 (date
  // 960227) qualifies; account 45 is monthly but dated 941209. So loans
  // {0, 1} satisfy, loan 4 (account 45) does not, even though account 108
  // (weekly) passes the date test.
  Fig2Database f = MakeFig2Database();
  Clause c = MonthlyClause(f);
  ComplexLiteral lit;
  lit.source_node = 1;  // the Account node, empty prop-path
  lit.constraint.attr = f.account_date;
  lit.constraint.cmp = CmpOp::kGe;
  lit.constraint.threshold = 950101;
  c.Append(f.db, lit);
  std::vector<uint8_t> all(5, 1);
  EXPECT_EQ(ClauseSatisfiedMask(f.db, c, all),
            (std::vector<uint8_t>{1, 1, 0, 0, 0}));
}

TEST(ClauseEvalTest, UnsatisfiableClauseEmptyMask) {
  Fig2Database f = MakeFig2Database();
  Clause c = MonthlyClause(f);
  ComplexLiteral lit;
  lit.source_node = 0;
  lit.constraint.attr = f.loan_amount;
  lit.constraint.cmp = CmpOp::kGe;
  lit.constraint.threshold = 1e9;
  c.Append(f.db, lit);
  std::vector<uint8_t> all(5, 1);
  EXPECT_EQ(ClauseSatisfiedMask(f.db, c, all),
            (std::vector<uint8_t>{0, 0, 0, 0, 0}));
}

TEST(ClauseEvalTest, AggregationLiteralInClause) {
  // count(*) >= 2 over the FK-FK self-ish path: propagate Loan ->
  // Account, then Account -> Loan (accounts with 2 loans). Simpler: use
  // the PkToFk edge Loan <- Account ... keep it direct: count of accounts
  // per loan is 1, so count >= 2 fails for everyone.
  Fig2Database f = MakeFig2Database();
  Clause c(f.db.target());
  ComplexLiteral lit;
  lit.source_node = 0;
  lit.edge_path = {FindEdgeId(f.db, f.loan, f.loan_account, f.account)};
  lit.constraint.agg = AggOp::kCount;
  lit.constraint.attr = kInvalidAttr;
  lit.constraint.cmp = CmpOp::kGe;
  lit.constraint.threshold = 2;
  c.Append(f.db, lit);
  std::vector<uint8_t> all(5, 1);
  EXPECT_EQ(ClauseSatisfiedMask(f.db, c, all),
            (std::vector<uint8_t>{0, 0, 0, 0, 0}));
}

TEST(ClauseEvalTest, TrainedModelCoverageConsistentWithPrediction) {
  // Whatever the trainer reports as covered must match ClauseSatisfiedMask
  // — they share the applier, but verify from the public API.
  Fig2Database f = MakeFig2Database();
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  CrossMineClassifier model(opts);
  std::vector<TupleId> all_ids{0, 1, 2, 3, 4};
  ASSERT_TRUE(model.Train(f.db, all_ids).ok());
  ASSERT_FALSE(model.clauses().empty());
  std::vector<uint8_t> all(5, 1);
  for (const Clause& clause : model.clauses()) {
    std::vector<uint8_t> mask = ClauseSatisfiedMask(f.db, clause, all);
    uint32_t pos = 0;
    for (TupleId t = 0; t < 5; ++t) {
      if (mask[t] && f.db.labels()[t] == clause.predicted_class) ++pos;
    }
    EXPECT_GE(pos, 1u);  // every clause covers at least one of its class
  }
}

// Property test: the production applier agrees with the brute-force
// oracle on clauses learned from random databases.
class ClauseEvalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClauseEvalPropertyTest, MatchesBruteForceOracle) {
  Database db = MakeRandomDatabase(GetParam(), /*num_relations=*/3,
                                   /*max_tuples=*/25);
  CrossMineOptions opts;
  opts.min_foil_gain = 0.1;  // accept weak literals: more clauses to check
  opts.max_clause_length = 3;
  CrossMineClassifier model(opts);
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  for (TupleId t = 0; t < ids.size(); ++t) ids[t] = t;
  ASSERT_TRUE(model.Train(db, ids).ok());

  std::vector<uint8_t> all(db.target_relation().num_tuples(), 1);
  for (const Clause& clause : model.clauses()) {
    EXPECT_EQ(ClauseSatisfiedMask(db, clause, all),
              BruteForceClauseSatisfied(db, clause, all))
        << clause.ToString(db);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClauseEvalPropertyTest,
                         ::testing::Range<uint64_t>(200, 216));

// ------------------------------------------------- multi-lane evaluation --

std::vector<TupleId> AllTargets(const Database& db) {
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

Database SyntheticDb() {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 200;
  cfg.seed = 41;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  CM_CHECK(db.ok());
  return std::move(*db);
}

Database FinancialDb() {
  datagen::FinancialConfig cfg;
  cfg.num_loans = 120;
  cfg.seed = 13;
  StatusOr<Database> db = datagen::GenerateFinancialDatabase(cfg);
  CM_CHECK(db.ok());
  return std::move(*db);
}

TEST(EvaluateClausesTest, MasksIdenticalAtEveryLaneCount) {
  for (const Database& db : {SyntheticDb(), FinancialDb()}) {
    CrossMineClassifier model;
    ASSERT_TRUE(model.Train(db, AllTargets(db)).ok());
    ASSERT_GE(model.clauses().size(), 2u);
    TupleId n = db.target_relation().num_tuples();
    // The whole relation, and a sparse query of every third target.
    std::vector<uint8_t> all(n, 1), sparse(n, 0);
    for (TupleId t = 0; t < n; t += 3) sparse[t] = 1;
    for (const std::vector<uint8_t>& query : {all, sparse}) {
      std::vector<std::vector<uint8_t>> expected;
      for (const Clause& clause : model.clauses()) {
        expected.push_back(ClauseSatisfiedMask(db, clause, query));
      }
      EXPECT_EQ(EvaluateClauses(db, model.clauses(), query, nullptr),
                expected);
      for (int lanes : {1, 2, 4}) {
        ThreadPool pool(lanes);
        EXPECT_EQ(EvaluateClauses(db, model.clauses(), query, &pool),
                  expected)
            << lanes << " lanes";
      }
    }
  }
}

TEST(EvaluateClausesTest, LaneRuleKeepsPointQueriesAndPoolLanesSequential) {
  const TupleId universe = 20000;  // break-even max(16, 2 * 313) = 626
  ASSERT_EQ(IdSetStore::BitmapThreshold(universe), 626u);
  EXPECT_EQ(IdSetStore::BitmapThreshold(100), 16u);
  EXPECT_EQ(ClauseEvalLanes(4, 46, 20000, universe), 4);
  EXPECT_EQ(ClauseEvalLanes(4, 46, 626, universe), 4);
  EXPECT_EQ(ClauseEvalLanes(4, 46, 625, universe), 1) << "below break-even";
  EXPECT_EQ(ClauseEvalLanes(4, 46, 1, universe), 1) << "point query";
  EXPECT_EQ(ClauseEvalLanes(4, 3, 20000, universe), 3) << "capped at clauses";
  EXPECT_EQ(ClauseEvalLanes(1, 46, 20000, universe), 1);
  EXPECT_EQ(ClauseEvalLanes(0, 46, 20000, universe),
            std::min(46, ThreadPool::HardwareConcurrency()));
  // On a pool lane (a serve worker, a shard worker) nothing nests.
  ThreadPool pool(2);
  std::vector<int> inside(3, -1);
  std::vector<std::function<void(int)>> tasks;
  for (size_t i = 0; i < inside.size(); ++i) {
    tasks.push_back([&inside, i, universe](int) {
      inside[i] = ClauseEvalLanes(4, 46, 20000, universe);
    });
  }
  ASSERT_TRUE(pool.RunTasks(tasks));
  EXPECT_EQ(inside, (std::vector<int>{1, 1, 1}));
}

/// Bulk predictions plus the `predict.*` counters (timers excluded) of one
/// `Predict` on every target with `num_threads` lanes.
struct PredictRun {
  std::vector<ClassId> predictions;
  MetricsSnapshot counters;
};

PredictRun RunPredict(CrossMineClassifier* model, const Database& db,
                      int num_threads, bool with_metrics) {
  model->set_num_threads(num_threads);
  MetricsRegistry reg;
  if (with_metrics) model->set_metrics(&reg);
  PredictRun run;
  run.predictions = model->Predict(db, AllTargets(db));
  model->set_metrics(nullptr);
  for (const auto& [key, value] : reg.Snapshot()) {
    if (key.size() >= 8 && key.compare(key.size() - 8, 8, "_seconds") == 0) {
      continue;
    }
    run.counters[key] = value;
  }
  return run;
}

TEST(EvaluateClausesTest, PredictIdenticalAtEveryLaneCountInEveryMode) {
  for (const Database& db : {SyntheticDb(), FinancialDb()}) {
    CrossMineClassifier model;
    ASSERT_TRUE(model.Train(db, AllTargets(db)).ok());
    for (PredictionMode mode :
         {PredictionMode::kBestClause, PredictionMode::kWeightedVote,
          PredictionMode::kDecisionList}) {
      model.set_prediction_mode(mode);
      PredictRun base = RunPredict(&model, db, 1, /*with_metrics=*/true);
      ASSERT_EQ(base.predictions.size(), db.target_relation().num_tuples());
      EXPECT_EQ(base.counters.at("predict.tuples"),
                static_cast<double>(base.predictions.size()));
      for (int lanes : {1, 2, 4}) {
        PredictRun with = RunPredict(&model, db, lanes, true);
        PredictRun without = RunPredict(&model, db, lanes, false);
        EXPECT_EQ(with.predictions, base.predictions)
            << "mode " << static_cast<int>(mode) << ", " << lanes << " lanes";
        EXPECT_EQ(without.predictions, base.predictions)
            << "mode " << static_cast<int>(mode) << ", " << lanes
            << " lanes, no metrics";
        EXPECT_EQ(with.counters, base.counters)
            << "mode " << static_cast<int>(mode) << ", " << lanes << " lanes";
      }
    }
  }
}

TEST(EvaluateClausesTest, DecisionListMatchesFirstSatisfiedClause) {
  // Predict evaluates every clause on the full query. Its decision-list
  // answer must equal the narrowing definition: each clause sees only the
  // targets no earlier clause decided.
  Database db = SyntheticDb();
  CrossMineClassifier model;
  ASSERT_TRUE(model.Train(db, AllTargets(db)).ok());
  model.set_prediction_mode(PredictionMode::kDecisionList);
  model.set_num_threads(4);
  std::vector<ClassId> pred = model.Predict(db, AllTargets(db));
  TupleId n = db.target_relation().num_tuples();
  std::vector<uint8_t> undecided(n, 1);
  std::vector<ClassId> expected(n, model.default_class());
  for (const Clause& clause : model.clauses()) {
    std::vector<uint8_t> mask = ClauseSatisfiedMask(db, clause, undecided);
    for (TupleId t = 0; t < n; ++t) {
      if (!mask[t]) continue;
      expected[t] = clause.predicted_class;
      undecided[t] = 0;
    }
  }
  EXPECT_EQ(pred, expected);
}

}  // namespace
}  // namespace crossmine
