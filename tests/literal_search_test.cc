#include "core/literal_search.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "common/random.h"
#include "core/constraint_eval.h"
#include "core/foil_gain.h"
#include "core/propagation.h"
#include "datagen/financial.h"
#include "datagen/mutagenesis.h"
#include "datagen/synthetic.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::Fig2Database;
using testing::MakeFig2Database;
using testing::MakeRandomDatabase;

struct SearchSetup {
  std::vector<uint8_t> positive;
  std::vector<uint8_t> alive;
  uint32_t pos = 0, neg = 0;
};

SearchSetup SetupFromLabels(const Database& db) {
  SearchSetup s;
  TupleId n = db.target_relation().num_tuples();
  s.positive.resize(n);
  s.alive.assign(n, 1);
  for (TupleId t = 0; t < n; ++t) {
    s.positive[t] = db.labels()[t] == 1;
    if (s.positive[t]) {
      ++s.pos;
    } else {
      ++s.neg;
    }
  }
  return s;
}

TEST(LiteralSearchTest, FindsMonthlyFrequencyLiteral) {
  // On Fig. 2 with idsets propagated to Account, the best categorical
  // literal is frequency = monthly covering 3+/1-.
  Fig2Database f = MakeFig2Database();
  SearchSetup s = SetupFromLabels(f.db);
  LiteralSearcher searcher(&f.db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);

  std::vector<IdSet> idsets = {{0, 1}, {2}, {3, 4}, {}};
  CrossMineOptions opts;
  opts.use_numerical_literals = false;
  opts.use_aggregation_literals = false;
  CandidateLiteral best =
      searcher.FindBest(f.account, StoreFromIdSets(idsets, 5), opts);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.constraint.attr, f.account_frequency);
  EXPECT_EQ(best.constraint.category, f.monthly);
  EXPECT_EQ(best.pos_cov, 3u);
  EXPECT_EQ(best.neg_cov, 1u);
  EXPECT_DOUBLE_EQ(best.gain, FoilGain(3, 2, 3, 1));
}

TEST(LiteralSearchTest, DistinctTargetCountingSection43) {
  // The §4.3 pitfall: one positive target joinable with many satisfying
  // tuples must be counted once. Build 10 loans (5+/5-); the positive loan
  // 0 joins 10 accounts, every other loan joins 1; all accounts satisfy
  // frequency = monthly. The literal must cover 5+/5- (useless), not 14+.
  Database db;
  RelationSchema acc("Account");
  acc.AddPrimaryKey("id");
  AttrId freq = acc.AddCategorical("frequency");
  db.AddRelation(std::move(acc));
  RelationSchema loan("Loan");
  loan.AddPrimaryKey("id");
  db.AddRelation(std::move(loan));
  db.SetTarget(1);

  Relation& account = db.mutable_relation(0);
  Relation& loans = db.mutable_relation(1);
  std::vector<ClassId> labels;
  std::vector<IdSet> idsets;
  for (TupleId t = 0; t < 10; ++t) {
    TupleId l = loans.AddTuple();
    loans.SetInt(l, 0, l);
    labels.push_back(t < 5 ? 1 : 0);
  }
  // Loan 0 joins 10 accounts; every other loan joins exactly one.
  for (int i = 0; i < 10; ++i) {
    TupleId a = account.AddTuple();
    account.SetInt(a, 0, a);
    account.SetInt(a, freq, 0);
    idsets.push_back({0});
  }
  for (TupleId t = 1; t < 10; ++t) {
    TupleId a = account.AddTuple();
    account.SetInt(a, 0, a);
    account.SetInt(a, freq, 0);
    idsets.push_back({t});
  }
  db.SetLabels(labels, 2);
  ASSERT_TRUE(db.Finalize().ok());

  SearchSetup s = SetupFromLabels(db);
  LiteralSearcher searcher(&db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);
  CrossMineOptions opts;
  opts.use_aggregation_literals = false;
  CandidateLiteral best =
      searcher.FindBest(0, StoreFromIdSets(idsets, 10), opts);
  // The only literal covers everything — no discrimination, so the search
  // reports nothing (had labels been counted per-binding it would report
  // a misleading 14+/5- literal).
  EXPECT_FALSE(best.valid());
}

TEST(LiteralSearchTest, NumericalSweepFindsThreshold) {
  // On the Loan relation itself (idset(t)={t}), duration <= 12 covers the
  // two class-1 loans 0,1 and nothing else... actually loans 0,1 have
  // duration 12; loans 2,4 have 24; loan 3 has 36. Labels: +,+,-,-,+.
  Fig2Database f = MakeFig2Database();
  SearchSetup s = SetupFromLabels(f.db);
  LiteralSearcher searcher(&f.db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);

  std::vector<IdSet> root(5);
  for (TupleId t = 0; t < 5; ++t) root[t] = {t};
  CrossMineOptions opts;
  opts.use_aggregation_literals = false;
  CandidateLiteral best =
      searcher.FindBest(f.loan, StoreFromIdSets(root, 5), opts);
  ASSERT_TRUE(best.valid());
  // duration <= 12 gives 2+/0-, the purest split with decent coverage;
  // payment <= 120 would give 2+/0- as well (90 and 120): either is
  // acceptable as long as coverage is pure.
  EXPECT_EQ(best.neg_cov, 0u);
  EXPECT_GE(best.pos_cov, 2u);
}

TEST(LiteralSearchTest, NumericalGeDirection) {
  // Make a dataset where only >= separates: values 1..6, positives at the
  // top half.
  Database db;
  RelationSchema t("T");
  t.AddPrimaryKey("id");
  AttrId x = t.AddNumerical("x");
  db.AddRelation(std::move(t));
  db.SetTarget(0);
  Relation& rel = db.mutable_relation(0);
  std::vector<ClassId> labels;
  for (int i = 0; i < 6; ++i) {
    TupleId id = rel.AddTuple();
    rel.SetInt(id, 0, id);
    rel.SetDouble(id, x, i);
    labels.push_back(i >= 3 ? 1 : 0);
  }
  db.SetLabels(labels, 2);
  ASSERT_TRUE(db.Finalize().ok());

  SearchSetup s = SetupFromLabels(db);
  LiteralSearcher searcher(&db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);
  std::vector<IdSet> root(6);
  for (TupleId i = 0; i < 6; ++i) root[i] = {i};
  CrossMineOptions opts;
  opts.use_aggregation_literals = false;
  CandidateLiteral best = searcher.FindBest(0, StoreFromIdSets(root, 6), opts);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.constraint.cmp, CmpOp::kGe);
  EXPECT_DOUBLE_EQ(best.constraint.threshold, 3.0);
  EXPECT_EQ(best.pos_cov, 3u);
  EXPECT_EQ(best.neg_cov, 0u);
}

TEST(LiteralSearchTest, AggregationCountLiteralFound) {
  // Positives join 3 accounts each, negatives 1: count(*) >= 3 separates.
  Database db;
  RelationSchema acc("Account");
  acc.AddPrimaryKey("id");
  acc.AddCategorical("c");
  db.AddRelation(std::move(acc));
  RelationSchema loan("Loan");
  loan.AddPrimaryKey("id");
  db.AddRelation(std::move(loan));
  db.SetTarget(1);
  Relation& account = db.mutable_relation(0);
  Relation& loans = db.mutable_relation(1);
  std::vector<ClassId> labels;
  std::vector<IdSet> idsets;
  for (TupleId t = 0; t < 8; ++t) {
    TupleId l = loans.AddTuple();
    loans.SetInt(l, 0, l);
    bool positive = t < 4;
    labels.push_back(positive ? 1 : 0);
    int copies = positive ? 3 : 1;
    for (int i = 0; i < copies; ++i) {
      TupleId a = account.AddTuple();
      account.SetInt(a, 0, a);
      account.SetInt(a, 1, 0);
      idsets.push_back({t});
    }
  }
  db.SetLabels(labels, 2);
  ASSERT_TRUE(db.Finalize().ok());

  SearchSetup s = SetupFromLabels(db);
  LiteralSearcher searcher(&db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);
  CrossMineOptions opts;  // aggregations enabled by default
  CandidateLiteral best =
      searcher.FindBest(0, StoreFromIdSets(idsets, 8), opts);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.constraint.agg, AggOp::kCount);
  EXPECT_EQ(best.constraint.cmp, CmpOp::kGe);
  EXPECT_EQ(best.pos_cov, 4u);
  EXPECT_EQ(best.neg_cov, 0u);
}

TEST(LiteralSearchTest, DisablingFamiliesRestrictsSearch) {
  Fig2Database f = MakeFig2Database();
  SearchSetup s = SetupFromLabels(f.db);
  LiteralSearcher searcher(&f.db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);
  std::vector<IdSet> root(5);
  for (TupleId t = 0; t < 5; ++t) root[t] = {t};

  CrossMineOptions none;
  none.use_numerical_literals = false;
  none.use_aggregation_literals = false;
  // The loan relation has only key + numerical attributes, so disabling
  // numerical literals leaves nothing to find.
  CandidateLiteral best =
      searcher.FindBest(f.loan, StoreFromIdSets(root, 5), none);
  EXPECT_FALSE(best.valid());
}

// Property test: categorical literal coverage equals a brute-force
// distinct-target count on random databases.
class LiteralSearchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LiteralSearchPropertyTest, CategoricalCountsMatchBruteForce) {
  Database db = MakeRandomDatabase(GetParam());
  TupleId n = db.target_relation().num_tuples();
  SearchSetup s = SetupFromLabels(db);
  LiteralSearcher searcher(&db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);

  std::vector<uint8_t> all(n, 1);
  IdSetStore root;
  root.InitIdentity(all);

  for (const JoinEdge& edge : db.edges()) {
    if (edge.from_rel != db.target()) continue;
    PropagationResult prop = PropagateIds(db, edge, root, nullptr);
    ASSERT_TRUE(prop.ok);
    const Relation& rel = db.relation(edge.to_rel);

    CrossMineOptions opts;
    opts.use_numerical_literals = false;
    opts.use_aggregation_literals = false;
    CandidateLiteral best = searcher.FindBest(edge.to_rel, prop.idsets, opts);
    if (!best.valid()) continue;

    // Recompute the winning literal's coverage by brute force.
    std::set<TupleId> covered;
    for (TupleId u = 0; u < rel.num_tuples(); ++u) {
      if (rel.Int(u, best.constraint.attr) != best.constraint.category) {
        continue;
      }
      prop.idsets.ForEach(u, [&](TupleId id) { covered.insert(id); });
    }
    uint32_t pos = 0, neg = 0;
    for (TupleId id : covered) {
      if (s.positive[id]) {
        ++pos;
      } else {
        ++neg;
      }
    }
    EXPECT_EQ(best.pos_cov, pos);
    EXPECT_EQ(best.neg_cov, neg);
    EXPECT_DOUBLE_EQ(best.gain, FoilGain(s.pos, s.neg, pos, neg));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiteralSearchPropertyTest,
                         ::testing::Range<uint64_t>(100, 112));

// --- Scan units: the per-attribute slices the parallel search schedules.

/// One store per relation of `db`, each reached breadth-first from the
/// target by propagating along the first edge that reaches it (the target
/// relation keeps the identity store over `alive`).
std::vector<std::pair<RelId, IdSetStore>> ReachableStores(
    const Database& db, const std::vector<uint8_t>& alive, bool bitmap) {
  std::vector<std::pair<RelId, IdSetStore>> stores;
  std::vector<uint8_t> reached(db.num_relations(), 0);
  stores.emplace_back(db.target(), IdSetStore());
  stores.back().second.InitIdentity(alive);
  reached[db.target()] = 1;
  for (size_t next = 0; next < stores.size(); ++next) {
    for (int32_t e : db.OutEdges(stores[next].first)) {
      const JoinEdge& edge = db.edges()[static_cast<size_t>(e)];
      if (reached[edge.to_rel]) continue;
      PropagationResult prop = PropagateIds(db, edge, stores[next].second,
                                            &alive, {}, nullptr, bitmap);
      if (!prop.ok) continue;
      reached[edge.to_rel] = 1;
      stores.emplace_back(edge.to_rel, std::move(prop.idsets));
    }
  }
  return stores;
}

void ExpectSameCandidate(const CandidateLiteral& a, const CandidateLiteral& b,
                         const std::string& where) {
  EXPECT_EQ(a.gain, b.gain) << where;
  EXPECT_EQ(a.pos_cov, b.pos_cov) << where;
  EXPECT_EQ(a.neg_cov, b.neg_cov) << where;
  EXPECT_EQ(a.constraint.attr, b.constraint.attr) << where;
  EXPECT_EQ(a.constraint.agg, b.constraint.agg) << where;
  EXPECT_EQ(a.constraint.cmp, b.constraint.cmp) << where;
  EXPECT_EQ(a.constraint.category, b.constraint.category) << where;
  EXPECT_EQ(a.constraint.threshold, b.constraint.threshold) << where;
}

/// On every relation of `db`, under random alive masks, both counting
/// engines and (on the target) the identity hint on and off: the units of
/// `ScanUnits`, scanned in reverse order on two searchers that each carry
/// scratch state from other units, then reduced in `ScanUnits` order with a
/// strict `>`, give exactly `FindBest`'s candidate. The winner's coverage
/// is re-counted with `ApplyConstraint`, which shares no counting code with
/// the searcher.
void ExpectUnitsMatchFindBest(const Database& db, uint64_t seed) {
  const TupleId n = db.target_relation().num_tuples();
  std::vector<uint8_t> positive(n);
  for (TupleId t = 0; t < n; ++t) positive[t] = db.labels()[t] == 1;
  Rng rng(seed);
  int checked = 0;
  for (double keep : {1.0, 0.7, 0.3}) {
    std::vector<uint8_t> alive(n);
    uint32_t pos = 0, neg = 0;
    for (TupleId t = 0; t < n; ++t) {
      alive[t] = rng.Bernoulli(keep) ? 1 : 0;
      if (!alive[t]) continue;
      if (positive[t]) {
        ++pos;
      } else {
        ++neg;
      }
    }
    for (bool bitmap : {false, true}) {
      CrossMineOptions opts;  // numerical and aggregation literals on
      opts.use_bitmap_index = bitmap;
      LiteralSearcher whole(&db, &positive);
      LiteralSearcher odd(&db, &positive);
      LiteralSearcher even(&db, &positive);
      for (LiteralSearcher* s : {&whole, &odd, &even}) {
        s->SetContext(&alive, pos, neg);
      }
      std::vector<std::pair<RelId, IdSetStore>> stores =
          ReachableStores(db, alive, bitmap);
      EXPECT_EQ(stores.size(), db.num_relations())
          << "a relation was not reached from the target";
      for (const auto& [rel, store] : stores) {
        std::vector<AttrId> units;
        LiteralSearcher::ScanUnits(db.relation(rel), opts, &units);
        for (bool identity : {false, true}) {
          if (identity && rel != db.target()) continue;
          std::string where = db.relation(rel).schema().name() +
                              " keep=" + std::to_string(keep) +
                              " bitmap=" + std::to_string(bitmap) +
                              " identity=" + std::to_string(identity);
          CandidateLiteral expected =
              whole.FindBest(rel, store, opts, identity);
          std::vector<CandidateLiteral> results(units.size());
          for (size_t u = units.size(); u-- > 0;) {
            LiteralSearcher& s = u % 2 == 0 ? even : odd;
            results[u] = s.ScanUnit(rel, units[u], store, opts, identity);
          }
          CandidateLiteral reduced;
          for (const CandidateLiteral& cand : results) {
            if (cand.gain > reduced.gain) reduced = cand;
          }
          ExpectSameCandidate(expected, reduced, where);
          if (!expected.valid()) continue;

          ++checked;
          IdSetStore copy = store;
          std::vector<uint8_t> satisfied(n, 0);
          ApplyConstraint(db.relation(rel), expected.constraint, alive, &copy,
                          &satisfied);
          uint32_t pos_cov = 0, neg_cov = 0;
          for (TupleId t = 0; t < n; ++t) {
            if (!satisfied[t]) continue;
            if (positive[t]) {
              ++pos_cov;
            } else {
              ++neg_cov;
            }
          }
          EXPECT_EQ(expected.pos_cov, pos_cov) << where;
          EXPECT_EQ(expected.neg_cov, neg_cov) << where;
          EXPECT_DOUBLE_EQ(expected.gain, FoilGain(pos, neg, pos_cov, neg_cov))
              << where;
        }
      }
    }
  }
  EXPECT_GT(checked, 0) << "no relation produced a literal to check";
}

TEST(ScanUnitTest, UnitsFollowAttributeOrderThenAggregations) {
  Fig2Database f = MakeFig2Database();
  const Relation& loan = f.db.relation(f.loan);
  std::vector<AttrId> units;
  CrossMineOptions opts;
  LiteralSearcher::ScanUnits(loan, opts, &units);
  ASSERT_FALSE(units.empty());
  EXPECT_EQ(units.back(), LiteralSearcher::kAggregationUnit);
  for (size_t u = 0; u + 1 < units.size(); ++u) {
    AttrKind kind = loan.schema().attr(units[u]).kind;
    EXPECT_TRUE(kind == AttrKind::kCategorical || kind == AttrKind::kNumerical);
    if (u > 0) {
      EXPECT_LT(units[u - 1], units[u]);
    }
  }
  // Disabled literal families contribute no units.
  opts.use_numerical_literals = false;
  opts.use_aggregation_literals = false;
  units.clear();
  LiteralSearcher::ScanUnits(loan, opts, &units);
  EXPECT_TRUE(units.empty());  // Loan has only key and numerical attributes
}

TEST(ScanUnitTest, SyntheticUnitsReduceToFindBest) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 150;
  cfg.seed = 13;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  ExpectUnitsMatchFindBest(*db, 1);
}

TEST(ScanUnitTest, FinancialUnitsReduceToFindBest) {
  datagen::FinancialConfig cfg;
  cfg.num_districts = 12;
  cfg.num_accounts = 200;
  cfg.num_clients = 240;
  cfg.num_loans = 80;
  cfg.seed = 5;
  StatusOr<Database> db = datagen::GenerateFinancialDatabase(cfg);
  ASSERT_TRUE(db.ok());
  ExpectUnitsMatchFindBest(*db, 2);
}

TEST(ScanUnitTest, MutagenesisUnitsReduceToFindBest) {
  datagen::MutagenesisConfig cfg;
  cfg.num_molecules = 40;
  cfg.seed = 9;
  StatusOr<Database> db = datagen::GenerateMutagenesisDatabase(cfg);
  ASSERT_TRUE(db.ok());
  ExpectUnitsMatchFindBest(*db, 3);
}

}  // namespace
}  // namespace crossmine
