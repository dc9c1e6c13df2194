#include "core/classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "datagen/financial.h"
#include "datagen/mutagenesis.h"
#include "datagen/synthetic.h"
#include "eval/cross_validation.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::Fig2Database;
using testing::MakeFig2Database;

CrossMineOptions SmallDataOptions() {
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  return opts;
}

TEST(ClassifierTest, TrainRequiresFinalizedDatabase) {
  Database db;
  RelationSchema t("T");
  t.AddPrimaryKey("id");
  db.AddRelation(std::move(t));
  db.SetTarget(0);
  CrossMineClassifier model;
  EXPECT_EQ(model.Train(db, {0}).code(), StatusCode::kFailedPrecondition);
}

TEST(ClassifierTest, TrainRejectsEmptyTrainingSet) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model;
  EXPECT_EQ(model.Train(f.db, {}).code(), StatusCode::kInvalidArgument);
}

TEST(ClassifierTest, TrainRejectsOutOfRangeIds) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model;
  EXPECT_EQ(model.Train(f.db, {0, 99}).code(), StatusCode::kOutOfRange);
}

TEST(ClassifierTest, LearnsMonthlyWeeklyRule) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model(SmallDataOptions());
  ASSERT_TRUE(model.Train(f.db, {0, 1, 2, 3, 4}).ok());
  ASSERT_FALSE(model.clauses().empty());

  // Perfect predictions on the training data.
  std::vector<ClassId> pred = model.Predict(f.db, {0, 1, 2, 3, 4});
  EXPECT_EQ(pred, (std::vector<ClassId>{1, 1, 0, 0, 1}));
}

TEST(ClassifierTest, ClausesBuiltForEveryClass) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model(SmallDataOptions());
  ASSERT_TRUE(model.Train(f.db, {0, 1, 2, 3, 4}).ok());
  bool has0 = false, has1 = false;
  for (const Clause& c : model.clauses()) {
    has0 |= (c.predicted_class == 0);
    has1 |= (c.predicted_class == 1);
  }
  EXPECT_TRUE(has0);
  EXPECT_TRUE(has1);
}

TEST(ClassifierTest, DefaultClassIsTrainingMajority) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model(SmallDataOptions());
  ASSERT_TRUE(model.Train(f.db, {0, 1, 2, 3, 4}).ok());
  EXPECT_EQ(model.default_class(), 1);  // 3 positive vs 2 negative
}

TEST(ClassifierTest, LabelsOutsideTrainingSetNeverRead) {
  // Corrupting test labels must not change the model.
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier a(SmallDataOptions());
  ASSERT_TRUE(a.Train(f.db, {0, 1, 2, 3}).ok());
  std::vector<ClassId> pred_before = a.Predict(f.db, {4});

  std::vector<ClassId> corrupted = f.db.labels();
  corrupted[4] = 1 - corrupted[4];
  f.db.SetLabels(corrupted, 2);
  CrossMineClassifier b(SmallDataOptions());
  ASSERT_TRUE(b.Train(f.db, {0, 1, 2, 3}).ok());
  EXPECT_EQ(b.Predict(f.db, {4}), pred_before);
  EXPECT_EQ(a.clauses().size(), b.clauses().size());
}

TEST(ClassifierTest, DeterministicForSameSeed) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 120;
  cfg.seed = 42;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  std::vector<TupleId> ids(db->target_relation().num_tuples());
  for (TupleId t = 0; t < ids.size(); ++t) ids[t] = t;

  CrossMineOptions opts;
  opts.use_sampling = true;
  opts.seed = 9;
  CrossMineClassifier a(opts), b(opts);
  ASSERT_TRUE(a.Train(*db, ids).ok());
  ASSERT_TRUE(b.Train(*db, ids).ok());
  ASSERT_EQ(a.clauses().size(), b.clauses().size());
  for (size_t i = 0; i < a.clauses().size(); ++i) {
    EXPECT_EQ(a.clauses()[i].ToString(*db), b.clauses()[i].ToString(*db));
  }
  EXPECT_EQ(a.Predict(*db, ids), b.Predict(*db, ids));
}

TEST(ClassifierTest, RetrainClearsPreviousModel) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model(SmallDataOptions());
  ASSERT_TRUE(model.Train(f.db, {0, 1, 2, 3, 4}).ok());
  size_t first = model.clauses().size();
  ASSERT_TRUE(model.Train(f.db, {0, 1, 2, 3, 4}).ok());
  EXPECT_EQ(model.clauses().size(), first);
}

TEST(ClassifierTest, PredictOneMatchesBatch) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model(SmallDataOptions());
  ASSERT_TRUE(model.Train(f.db, {0, 1, 2, 3, 4}).ok());
  std::vector<ClassId> batch = model.Predict(f.db, {0, 1, 2, 3, 4});
  for (TupleId t = 0; t < 5; ++t) {
    EXPECT_EQ(model.PredictOne(f.db, t), batch[t]);
  }
}

TEST(ClassifierTest, MulticlassOneVsRest) {
  // Three classes keyed directly to a categorical attribute of the target.
  Database db;
  RelationSchema t("T");
  t.AddPrimaryKey("id");
  AttrId c = t.AddCategorical("c");
  db.AddRelation(std::move(t));
  db.SetTarget(0);
  Relation& rel = db.mutable_relation(0);
  std::vector<ClassId> labels;
  for (int i = 0; i < 30; ++i) {
    TupleId id = rel.AddTuple();
    rel.SetInt(id, 0, id);
    rel.SetInt(id, c, i % 3);
    labels.push_back(i % 3);
  }
  db.SetLabels(labels, 3);
  ASSERT_TRUE(db.Finalize().ok());

  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  CrossMineClassifier model(opts);
  std::vector<TupleId> ids(30);
  for (TupleId i = 0; i < 30; ++i) ids[i] = i;
  ASSERT_TRUE(model.Train(db, ids).ok());
  std::vector<ClassId> pred = model.Predict(db, ids);
  EXPECT_EQ(pred, labels);
}

TEST(ClassifierTest, SamplingPreservesAccuracyApproximately) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 250;
  cfg.seed = 21;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());

  CrossMineOptions plain;
  plain.use_aggregation_literals = false;
  plain.use_numerical_literals = false;
  CrossMineOptions sampled = plain;
  sampled.use_sampling = true;
  sampled.max_num_negative = 100;

  auto run = [&](const CrossMineOptions& o) {
    return eval::CrossValidate(
               *db, [&] { return std::make_unique<CrossMineClassifier>(o); },
               3, 1)
        .mean_accuracy;
  };
  double acc_plain = run(plain);
  double acc_sampled = run(sampled);
  EXPECT_GT(acc_plain, 0.6);
  // "the sampling method only slightly sacrifices the accuracy" (§7.1).
  EXPECT_GT(acc_sampled, acc_plain - 0.12);
}

TEST(ClassifierTest, MinFoilGainControlsModelSize) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 150;
  cfg.seed = 33;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  std::vector<TupleId> ids(db->target_relation().num_tuples());
  for (TupleId t = 0; t < ids.size(); ++t) ids[t] = t;

  CrossMineOptions loose;
  loose.min_foil_gain = 1.0;
  loose.use_aggregation_literals = false;
  CrossMineOptions strict = loose;
  strict.min_foil_gain = 10.0;
  CrossMineClassifier a(loose), b(strict);
  ASSERT_TRUE(a.Train(*db, ids).ok());
  ASSERT_TRUE(b.Train(*db, ids).ok());
  EXPECT_GE(a.clauses().size(), b.clauses().size());
}

TEST(ClassifierTest, MaxClauseLengthRespected) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 150;
  cfg.seed = 34;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  std::vector<TupleId> ids(db->target_relation().num_tuples());
  for (TupleId t = 0; t < ids.size(); ++t) ids[t] = t;

  CrossMineOptions opts;
  opts.max_clause_length = 2;
  CrossMineClassifier model(opts);
  ASSERT_TRUE(model.Train(*db, ids).ok());
  for (const Clause& c : model.clauses()) {
    EXPECT_LE(c.length(), 2);
  }
}

TEST(ClassifierTest, ClauseAccuracyInUnitRange) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model(SmallDataOptions());
  ASSERT_TRUE(model.Train(f.db, {0, 1, 2, 3, 4}).ok());
  for (const Clause& c : model.clauses()) {
    EXPECT_GT(c.accuracy, 0.0);
    EXPECT_LT(c.accuracy, 1.0);
    EXPECT_GE(c.sup_pos, 1.0);
  }
}

TEST(ClassifierTest, ToStringListsClauses) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model(SmallDataOptions());
  ASSERT_TRUE(model.Train(f.db, {0, 1, 2, 3, 4}).ok());
  std::string s = model.ToString(f.db);
  EXPECT_NE(s.find("CrossMine model"), std::string::npos);
  EXPECT_NE(s.find(":-"), std::string::npos);
}

// Explain derives its answer from the same per-mode decision rule as bulk
// Predict, so the two must agree on every target in every mode, and the
// deciding clause must be one the target satisfies, of the predicted class.
void ExpectExplainMatchesPredict(const Database& db, const char* tag) {
  std::vector<TupleId> all(db.target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  CrossMineClassifier model;
  ASSERT_TRUE(model.Train(db, all).ok()) << tag;
  for (PredictionMode mode :
       {PredictionMode::kBestClause, PredictionMode::kWeightedVote,
        PredictionMode::kDecisionList}) {
    model.set_prediction_mode(mode);
    std::vector<ClassId> bulk = model.Predict(db, all);
    for (TupleId t : all) {
      CrossMineClassifier::Explanation ex = model.Explain(db, t);
      ASSERT_EQ(ex.predicted, model.Predict(db, {t})[0])
          << tag << " mode " << static_cast<int>(mode) << " tuple " << t;
      ASSERT_EQ(ex.predicted, bulk[t])
          << tag << " mode " << static_cast<int>(mode) << " tuple " << t;
      if (ex.clause_index < 0) continue;
      EXPECT_EQ(model.clauses()[static_cast<size_t>(ex.clause_index)]
                    .predicted_class,
                ex.predicted);
      EXPECT_NE(std::find(ex.satisfied.begin(), ex.satisfied.end(),
                          ex.clause_index),
                ex.satisfied.end());
    }
  }
}

TEST(ClassifierTest, ExplainMatchesPointPredictInEveryMode) {
  datagen::SyntheticConfig syn;
  syn.num_relations = 6;
  syn.expected_tuples = 120;
  syn.seed = 102;
  StatusOr<Database> synthetic = datagen::GenerateSyntheticDatabase(syn);
  ASSERT_TRUE(synthetic.ok());
  ExpectExplainMatchesPredict(*synthetic, "synthetic");

  datagen::FinancialConfig fin;
  fin.num_loans = 80;
  fin.seed = 5;
  StatusOr<Database> financial = datagen::GenerateFinancialDatabase(fin);
  ASSERT_TRUE(financial.ok());
  ExpectExplainMatchesPredict(*financial, "financial");

  datagen::MutagenesisConfig mut;
  mut.num_molecules = 60;
  mut.seed = 9;
  StatusOr<Database> mutagenesis = datagen::GenerateMutagenesisDatabase(mut);
  ASSERT_TRUE(mutagenesis.ok());
  ExpectExplainMatchesPredict(*mutagenesis, "mutagenesis");
}

}  // namespace
}  // namespace crossmine
