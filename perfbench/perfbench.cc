// perfbench: the layer-by-layer CrossMine benchmark.
//
// One run generates a workload's database from its data seed, opens it,
// trains, saves and reloads the model, bulk-predicts every target tuple and
// serves single-id requests through an in-process PredictionServer. Every
// answer is checked against an offline reference, and the last stdout line
// is one JSON object: end-to-end metrics untraced (`--trace 0`), per-layer
// metrics traced (`--trace 1`, which also writes a Chrome trace-event span
// file). See README.md in this directory for the workloads and metrics;
// `python3 perfbench/run.py` builds and runs it.
//
//   perfbench --workload synth_t20k --seed 3 --seconds 10 --trace 0
//             --crossmine <path to the crossmine CLI> --out-dir <dir>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fs.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/financial.h"
#include "datagen/synthetic.h"
#include "relational/index_cache.h"
#include "relational/relation.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "shard/sharded_trainer.h"
#include "storage/storage.h"

namespace {

using namespace crossmine;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool financial;    // financial generator instead of synthetic R20.T20000.F2
  bool sharded;      // train with ShardedClassifier, K=4, process exec
  uint64_t default_data_seed;
  // Open-loop rate in requests per second, at most about a third of the
  // saturation rate on two lanes (48-130/s synthetic, 570-990/s financial,
  // as the host's speed varied). Nearer saturation, queueing multiplies
  // every wobble of the host into the median: at 40/s the synthetic p50
  // spread 30% run to run.
  double open_loop_rate;
  // Trains per run; the median is reported.
  int train_reps;
};

constexpr Workload kWorkloads[] = {
    {"synth_t20k", false, false, 29, 20.0, 3},
    // More trains: a 3.6 s Train with half-idle lanes varies most.
    {"fin_numeric", true, false, 7, 100.0, 4},
    // One train: process exec varies little, and it is the longest Train.
    {"synth_shard4", false, true, 29, 20.0, 1},
};

constexpr int kSyntheticRelations = 20;
constexpr int kSyntheticTuples = 20000;
constexpr int kSyntheticFkeys = 2;
constexpr int kFinancialLoans = 1600;
constexpr int kLanes = 4;  // training pool
constexpr int kShards = 4;
constexpr int kServeLanes = 2;
// Set-ups per run: at least kSetupReps, and more until kSetupSeconds have
// been spent, so a 20 ms financial set-up gets a median of many samples.
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;
constexpr int kSaturationWindow = 4;    // requests in flight
constexpr int kRounds = 3;
// Shares of --seconds for bulk predict, the open loop and saturation.
constexpr double kPredictShare = 0.1;
constexpr double kOpenShare = 0.4;
constexpr double kSaturationShare = 0.2;
// Offline single-id calls a traced run makes on the request stream.
constexpr size_t kOfflinePointCalls = 300;
// Untimed start of every open loop (see OpenLoop).
constexpr double kLeadInSeconds = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  std::optional<uint64_t> data_seed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/run";
  std::string trace_dir = ".bench_build/perfbench/traces";
  std::string crossmine;  // worker binary for process-exec sharding
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and (for serve) a request id, kept in memory
// and written at exit as Chrome trace-event JSON. Inert unless enabled.

class Tracer {
 public:
  void Enable() { enabled_ = true; }

  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, Now(), 0, parent, -1});
    int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = Now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Records a finished span measured elsewhere (one served request),
  /// parented to the innermost open span.
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int64_t req_id) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, Micros(start), Micros(end), parent, req_id});
  }

  size_t size() const { return spans_.size(); }

  Status Write(const std::string& path) const {
    std::string out = "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"req_id\":%lld}}%s\n",
                    s.name.c_str(), s.req_id >= 0 ? 2 : 1, s.start_us,
                    std::max(0.0, s.end_us - s.start_us), i, s.parent,
                    static_cast<long long>(s.req_id),
                    i + 1 < spans_.size() ? "," : "");
      out += buf;
    }
    out += "]}\n";
    return AtomicWriteFile(path, out);
  }

 private:
  struct SpanRecord {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    int64_t req_id;
  };
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  double Now() const { return Micros(Clock::now()); }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;  // open spans of the benchmark's main thread
};

Tracer g_tracer;

/// Times one public call: records a span (traced runs) and returns seconds.
template <typename F>
double Timed(const char* name, F&& fn) {
  int span = g_tracer.Begin(name);
  Stopwatch sw;
  fn();
  double s = sw.ElapsedSeconds();
  g_tracer.End(span);
  return s;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  /// Records one operation; a failed one is reported on stderr.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
    }
  }
  /// A correctness-gate mismatch: counted as a failed operation and marks
  /// the run incorrect.
  void Gate(bool ok, const std::string& what) {
    Op(ok, what);
    if (!ok) correct = false;
  }
  void E2e(const std::string& name, double v, const char* unit) {
    end_to_end[name] = {v, unit};
  }
  void Layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = {v, unit};
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// User + system CPU seconds of this process plus its reaped children.
double CpuSeconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  return total;
}

double Get(const MetricsSnapshot& snap, const std::string& key) {
  auto it = snap.find(key);
  return it == snap.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Set-up: generate the `.cmdb` from the data seed and open it verified.

datagen::SyntheticConfig SyntheticConfig(uint64_t data_seed) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = kSyntheticRelations;
  cfg.expected_tuples = kSyntheticTuples;
  cfg.expected_fkeys = kSyntheticFkeys;
  cfg.seed = data_seed;
  return cfg;
}

Status Generate(const Workload& w, uint64_t data_seed, const std::string& path) {
  if (w.financial) {
    datagen::FinancialConfig cfg;
    cfg.num_loans = kFinancialLoans;
    cfg.seed = data_seed;
    StatusOr<Database> db = datagen::GenerateFinancialDatabase(cfg);
    if (!db.ok()) return db.status();
    return storage::SaveDatabase(*db, path);
  }
  return datagen::GenerateSyntheticDatabaseToFile(SyntheticConfig(data_seed), path);
}

std::string ScaleName(const Workload& w) {
  if (w.financial) return "financial.L" + std::to_string(kFinancialLoans);
  return SyntheticConfig(0).Name();
}

CrossMineOptions TrainOptions(const Workload& w) {
  CrossMineOptions o;  // CLI defaults
  o.use_sampling = !w.financial;
  o.num_threads = kLanes;
  return o;
}

// ---------------------------------------------------------------------------
// Serving: one generator thread, an open-loop phase then a saturation phase.

struct ServeRequest {
  int64_t req_id;
  TupleId id;
  bool explain;
  std::string line;
};

/// The served request stream. Request i is a function of the seed and i
/// alone, so the stream is made on demand and never held in memory, where
/// it would count in the program's peak RSS.
class RequestStream {
 public:
  RequestStream(uint64_t seed, TupleId universe)
      : base_(Rng(seed * 0x9E3779B97F4A7C15ULL + 0x5E7E).Next()), universe_(universe) {}

  ServeRequest At(size_t i) const {
    // Counter-based SplitMix64: request i starts from the stream's i-th state.
    Rng rng(base_ + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(i));
    ServeRequest r;
    r.req_id = static_cast<int64_t>(i);
    r.id = static_cast<TupleId>(rng.Uniform(universe_));
    r.explain = i % 10 == 9;  // the 90/10 predict/explain mix, evenly spread
    r.line = std::string("{\"verb\":\"") + (r.explain ? "explain" : "predict") +
             "\",\"id\":" + std::to_string(r.id) +
             ",\"req_id\":" + std::to_string(i) + "}";
    return r;
  }

 private:
  uint64_t base_;
  TupleId universe_;
};

/// The offline answer a served request must byte-equal.
class ExpectedAnswers {
 public:
  // The offline explanations run one at a time on the benchmark's thread:
  // a pool of them would put its own transient memory into the peak RSS.
  ExpectedAnswers(const CrossMineClassifier* model, const Database* db,
                  const std::vector<ClassId>* predictions)
      : model_(model), db_(db), predictions_(predictions) {}

  std::string For(const ServeRequest& r) {
    std::string req_id = std::to_string(r.req_id);
    if (!r.explain) return serve::EncodePrediction((*predictions_)[r.id], req_id);
    const CrossMineClassifier::Explanation& ex = ExplainCached(r.id);
    std::string clause_text;
    if (ex.clause_index >= 0) {
      clause_text = model_->clauses()[static_cast<size_t>(ex.clause_index)]
                        .ToString(*db_);
    }
    return serve::EncodeExplanation(ex.predicted, ex.clause_index, clause_text,
                                    ex.satisfied, req_id);
  }

 private:
  const CrossMineClassifier::Explanation& ExplainCached(TupleId id) {
    auto it = explained_.find(id);
    if (it == explained_.end()) {
      it = explained_.emplace(id, model_->Explain(*db_, id)).first;
    }
    return it->second;
  }

  const CrossMineClassifier* model_;
  const Database* db_;
  const std::vector<ClassId>* predictions_;
  std::map<TupleId, CrossMineClassifier::Explanation> explained_;
};

struct PhaseStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;  // open loop: send time - due time
  double seconds = 0.0;
};

struct Completed {
  size_t index;
  Clock::time_point due;
  std::string response;
  Clock::time_point done;
  bool counted;  // false during an open loop's lead-in
};

/// Checks completed requests against the offline answers.
void CheckResponses(const RequestStream& reqs, const std::vector<Completed>& done,
                    ExpectedAnswers* expected, PhaseStats* stats, Result* result,
                    const char* phase) {
  for (const Completed& c : done) {
    const ServeRequest r = reqs.At(c.index);
    bool ok = c.response.rfind("{\"ok\":true", 0) == 0;
    bool same = c.response == expected->For(r);
    (ok && same ? stats->ok : stats->failed) += 1;
    result->Op(ok, std::string(phase) + " request " + c.response);
    if (ok) result->Gate(same, std::string(phase) + " response differs: " + r.line);
    if (c.counted) stats->latency_ms.push_back(Ms(c.done - c.due));
    g_tracer.Add(r.explain ? "serve.explain" : "serve.predict", c.due, c.done,
                 r.req_id);
  }
}

/// Open loop: request i is due at start + i / rate and is sent then,
/// whatever is still in flight; latency runs from the due time. The first
/// `lead_in` requests are sent and checked but not timed: they cover the
/// server's first moments after Start.
PhaseStats OpenLoop(serve::PredictionServer* server, const RequestStream& reqs, size_t first,
                    size_t lead_in, size_t count, double rate,
                    ExpectedAnswers* expected, Result* result) {
  struct InFlight {
    size_t index;
    Clock::time_point due;
    std::future<std::string> fut;
    bool counted;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool finished = false;
  std::vector<Completed> done;
  done.reserve(count);

  // Futures resolve in admission order (micro-batches complete whole and in
  // FIFO order), so one collector waiting on the oldest sees each
  // completion as it happens.
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || finished; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      std::string response = f.fut.get();
      done.push_back({f.index, f.due, std::move(response), Clock::now(), f.counted});
    }
  });

  PhaseStats stats;
  stats.lateness_ms.reserve(count);
  auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  Clock::time_point start = Clock::now();
  for (size_t k = 0; k < lead_in + count; ++k) {
    Clock::time_point due = start + interval * static_cast<int64_t>(k);
    const std::string line = reqs.At(first + k).line;  // made before it is due
    std::this_thread::sleep_until(due);
    stats.lateness_ms.push_back(Ms(Clock::now() - due));
    std::future<std::string> fut = server->SubmitAsync(line);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({first + k, due, std::move(fut), k >= lead_in});
    }
    cv.notify_one();
    ++stats.sent;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_one();
  collector.join();
  stats.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  CheckResponses(reqs, done, expected, &stats, result, "open-loop");
  return stats;
}

/// Saturation: keep a fixed window of requests in flight for `seconds`.
PhaseStats Saturation(serve::PredictionServer* server, const RequestStream& reqs,
                      size_t first, double seconds, ExpectedAnswers* expected,
                      Result* result) {
  struct InFlight {
    size_t index;
    Clock::time_point sent;
    std::future<std::string> fut;
  };
  std::deque<InFlight> window;
  std::vector<Completed> done;
  PhaseStats stats;
  Clock::time_point start = Clock::now();
  Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
  size_t next = first;
  for (;;) {
    bool open = Clock::now() < stop;
    while (open && window.size() < static_cast<size_t>(kSaturationWindow)) {
      window.push_back({next, Clock::now(), server->SubmitAsync(reqs.At(next).line)});
      ++next;
      ++stats.sent;
    }
    if (window.empty()) break;
    InFlight f = std::move(window.front());
    window.pop_front();
    std::string response = f.fut.get();
    done.push_back({f.index, f.sent, std::move(response), Clock::now(), true});
  }
  stats.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  CheckResponses(reqs, done, expected, &stats, result, "saturation");
  return stats;
}

// ---------------------------------------------------------------------------
// The run

struct TrainOutcome {
  Status status = Status::OK();
  CrossMineClassifier model;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  shard::ShardedClassifier::Stats shard_stats;
};

TrainOutcome Train(const Workload& w, const Args& args, const Database& db,
                   const std::vector<TupleId>& train_ids,
                   MetricsRegistry* registry) {
  TrainOutcome out;
  CrossMineOptions options = TrainOptions(w);
  double cpu0 = CpuSeconds();
  if (w.sharded) {
    shard::ShardOptions so;
    so.num_shards = kShards;
    so.merge = shard::MergeMode::kRescore;
    so.partition = shard::PartitionMode::kShared;
    so.exec = shard::ShardExecMode::kProcess;
    so.supervisor.run_dir = args.out_dir + "/shard_run";
    so.supervisor.worker_binary = args.crossmine;
    shard::ShardedClassifier sharded(options, so);
    sharded.set_metrics(registry);
    out.seconds = Timed("shard.ShardedClassifier::Train",
                        [&] { out.status = sharded.Train(db, train_ids); });
    out.model = sharded.merged_model();
    out.shard_stats = sharded.stats();
  } else {
    CrossMineClassifier model(options);
    model.set_metrics(registry);
    out.seconds = Timed("core.CrossMineClassifier::Train",
                        [&] { out.status = model.Train(db, train_ids); });
    model.set_metrics(nullptr);
    out.model = std::move(model);
  }
  out.cpu_seconds = CpuSeconds() - cpu0;
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Result& r, bool trace) {
  const std::map<std::string, Metric>& metrics = trace ? r.per_layer : r.end_to_end;
  std::string out = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Adds one round's serving phase to the run's totals.
void Absorb(const PhaseStats& part, PhaseStats* total) {
  total->sent += part.sent;
  total->ok += part.ok;
  total->failed += part.failed;
  total->latency_ms.insert(total->latency_ms.end(), part.latency_ms.begin(),
                           part.latency_ms.end());
  total->lateness_ms.insert(total->lateness_ms.end(), part.lateness_ms.begin(),
                            part.lateness_ms.end());
  total->seconds += part.seconds;
}

std::string JoinSeconds(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : ",") + std::to_string(x);
  return out;
}

int Run(const Workload& w, const Args& args) {
  std::error_code ec;
  std::filesystem::remove_all(args.out_dir, ec);
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.out_dir.c_str());
    return 1;
  }
  if (args.trace) g_tracer.Enable();
  const uint64_t data_seed = args.data_seed.value_or(w.default_data_seed);
  const std::string db_path = args.out_dir + "/db.cmdb";
  const std::string model_path = args.out_dir + "/model.cmm";
  Result result;
  auto fail = [&] {
    PrintResult(result, args.trace);
    return 1;
  };
  const uint64_t materializations0 = ColumnMaterializationCount().load();
  int root_span = g_tracer.Begin(std::string("perfbench.") + w.name);

  std::printf("host: nproc=%u lanes=%d serve_lanes=%d workload=%s seed=%llu "
              "data_seed=%llu scale=%s seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(), kLanes, kServeLanes,
              w.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(data_seed), ScaleName(w).c_str(),
              args.seconds, args.trace ? 1 : 0);

  // --- set-up: generate + open, several times; the last database is kept.
  std::vector<double> gen_s, open_s, setup_s;
  std::optional<Database> db;
  auto open_db = [&]() -> bool {
    db.reset();
    StatusOr<Database> opened = Status::Internal("not opened");
    open_s.push_back(Timed("storage.OpenDatabase",
                           [&] { opened = storage::OpenDatabase(db_path); }));
    result.Op(opened.ok(), "open: " + opened.status().ToString());
    if (opened.ok()) db.emplace(std::move(*opened));
    return opened.ok();
  };
  for (int rep = 0;
       rep < kSetupReps || std::accumulate(setup_s.begin(), setup_s.end(), 0.0) < kSetupSeconds;
       ++rep) {
    db.reset();
    std::filesystem::remove(db_path, ec);
    Status gen = Status::OK();
    gen_s.push_back(Timed("datagen.Generate", [&] { gen = Generate(w, data_seed, db_path); }));
    result.Op(gen.ok(), "generate: " + gen.ToString());
    if (!gen.ok() || !open_db()) return fail();
    setup_s.push_back(gen_s.back() + open_s.back());
  }
  const TupleId num_targets = db->target_relation().num_tuples();
  std::vector<TupleId> all(num_targets);
  std::iota(all.begin(), all.end(), 0);

  // Fixed 2/3 holdout split drawn from the data seed: the model is a
  // function of the database alone, so `--seed` (which picks the served id
  // stream) moves no training or bulk-predict figure.
  std::vector<TupleId> train_ids, test_ids;
  {
    std::vector<TupleId> perm = all;
    Rng rng(data_seed * 0xD1B54A32D192ED03ULL + 0x5B11);
    rng.Shuffle(&perm);
    size_t cut = perm.size() * 2 / 3;
    train_ids.assign(perm.begin(), perm.begin() + static_cast<long>(cut));
    test_ids.assign(perm.begin() + static_cast<long>(cut), perm.end());
    std::sort(train_ids.begin(), train_ids.end());
    std::sort(test_ids.begin(), test_ids.end());
  }

  // --- the timed phase: the trains, then rounds that each bulk-predict and
  // serve a slice of the request stream, so those metrics sample the whole
  // phase rather than one stretch of it.
  const double predict_budget = args.seconds * kPredictShare / kRounds;
  const double open_budget = args.seconds * kOpenShare / kRounds;
  const double sat_budget = args.seconds * kSaturationShare / kRounds;
  const size_t open_per_round =
      std::max<size_t>(10, static_cast<size_t>(open_budget * w.open_loop_rate));
  const size_t warmup = 20;  // sequential requests, two of them explains
  const size_t lead_in = static_cast<size_t>(kLeadInSeconds * w.open_loop_rate);
  const RequestStream reqs(args.seed, num_targets);
  size_t next_req = 0;

  MetricsRegistry train_registry, predict_registry;
  IndexCache::Stats index0 = IndexCache::Global().stats();
  IndexCache::Stats index1;
  std::optional<TrainOutcome> trained;  // the first Train's
  std::optional<CrossMineClassifier> loaded;
  std::string serialized;
  std::vector<ClassId> predictions;  // the first bulk answers on the loaded model
  std::vector<double> train_s, bulk_s, save_s, load_s;
  PhaseStats open, sat;
  std::vector<double> mean_batch, round_p50, round_qps;
  double queue_highwater = 0, sheds = 0, deadline_exceeded = 0;

  // One training repetition: reopen the database after the first, so every
  // Train builds its indexes cold like a `crossmine train` run; train; check
  // the model is byte-identical to the first one (the traced one); save and
  // reload it.
  auto train_rep = [&]() -> bool {
    const bool first = !trained.has_value();
    if (!first && !open_db()) return false;
    TrainOutcome rep =
        Train(w, args, *db, train_ids, args.trace && first ? &train_registry : nullptr);
    result.Op(rep.status.ok(), "train: " + rep.status.ToString());
    if (!rep.status.ok()) return false;
    train_s.push_back(rep.seconds);
    std::string bytes = SerializeModel(rep.model, *db);
    if (first) {
      index1 = IndexCache::Global().stats();
      serialized = std::move(bytes);
      trained.emplace(std::move(rep));
      std::printf("model: clauses=%zu crc32=%08x bytes=%zu\n",
                  trained->model.clauses().size(), Crc32(serialized), serialized.size());
    } else {
      result.Gate(bytes == serialized, "repeated Train produced a different model");
    }

    Status saved = Status::OK();
    save_s.push_back(Timed("core.SaveModel", [&] {
      saved = SaveModel(trained->model, *db, model_path);
    }));
    result.Op(saved.ok(), "save: " + saved.ToString());
    StatusOr<CrossMineClassifier> loaded_or = Status::Internal("not loaded");
    load_s.push_back(Timed("core.LoadModel", [&] { loaded_or = LoadModel(*db, model_path); }));
    result.Op(loaded_or.ok(), "load: " + loaded_or.status().ToString());
    if (!saved.ok() || !loaded_or.ok()) return false;
    loaded.emplace(std::move(*loaded_or));
    return true;
  };

  // All trains come first, so allocator state left by the serving rounds
  // never shapes a Train or the peak RSS.
  const double rss_setup_mb = PeakRssMiB();
  for (int rep = 0; rep < w.train_reps; ++rep) {
    if (!train_rep()) return fail();
  }
  const double rss_train_mb = PeakRssMiB();
  for (int round = 0; round < kRounds; ++round) {
    // Bulk predict on the loaded model; the first pass overall is traced.
    // Round 0 also checks the loaded model against the trained one.
    Stopwatch predict_phase;
    for (int reps = 0; reps < 2 || predict_phase.ElapsedSeconds() < predict_budget; ++reps) {
      loaded->set_metrics(args.trace && bulk_s.empty() ? &predict_registry : nullptr);
      StatusOr<std::vector<ClassId>> pred = Status::Internal("not run");
      bulk_s.push_back(Timed("core.PredictBatchChecked",
                             [&] { pred = loaded->PredictBatchChecked(*db, all); }));
      loaded->set_metrics(nullptr);
      result.Op(pred.ok(), "bulk predict: " + pred.status().ToString());
      if (!pred.ok()) return fail();
      if (predictions.empty()) {
        predictions = std::move(*pred);
        StatusOr<std::vector<ClassId>> in_memory =
            trained->model.PredictBatchChecked(*db, all);
        result.Op(in_memory.ok(), "in-memory predict: " + in_memory.status().ToString());
        if (!in_memory.ok()) return fail();
        size_t mismatches = 0;
        for (TupleId id : all) mismatches += predictions[id] != (*in_memory)[id];
        result.Gate(mismatches == 0, "loaded model disagrees with the trained model on " +
                                         std::to_string(mismatches) + " targets");
      } else {
        result.Gate(*pred == predictions, "bulk predict answers changed");
      }
    }

    // Serve this round's slice of the request stream.
    ExpectedAnswers expected(&*loaded, &*db, &predictions);
    serve::ServerOptions server_options;
    server_options.threads = kServeLanes;
    auto server = std::make_unique<serve::PredictionServer>(&*db, server_options);
    Timed("serve.AddModel+Start+warmup", [&] {
      Status added = server->AddModel(
          "crossmine", std::make_unique<CrossMineClassifier>(*loaded));
      result.Op(added.ok(), "AddModel: " + added.ToString());
      Status started = added.ok() ? server->Start() : added;
      result.Op(started.ok(), "Start: " + started.ToString());
      if (!started.ok()) return;
      for (size_t i = 0; i < warmup; ++i) {
        const ServeRequest r = reqs.At(next_req++);
        std::string response = server->Submit(r.line);
        result.Gate(response == expected.For(r), "warm-up response differs");
      }
    });
    if (result.failed > 0) return fail();

    int span = g_tracer.Begin("serve.open_loop");
    PhaseStats part = OpenLoop(server.get(), reqs, next_req, lead_in, open_per_round,
                               w.open_loop_rate, &expected, &result);
    g_tracer.End(span);
    next_req += part.sent;
    round_p50.push_back(Quantile(part.latency_ms, 0.50));
    Absorb(part, &open);
    MetricsSnapshot snap = server->StatsSnapshot();
    mean_batch.push_back(Ratio(Get(snap, "serve.batched_requests"), Get(snap, "serve.batches")));
    queue_highwater = std::max(queue_highwater, Get(snap, "serve.queue_highwater"));

    span = g_tracer.Begin("serve.saturation");
    part = Saturation(server.get(), reqs, next_req, sat_budget, &expected, &result);
    g_tracer.End(span);
    next_req += part.sent;
    round_qps.push_back(Ratio(static_cast<double>(part.ok), part.seconds));
    Absorb(part, &sat);
    snap = server->StatsSnapshot();
    sheds += Get(snap, "serve.sheds");
    deadline_exceeded += Get(snap, "serve.deadline_exceeded");
    server->Drain();
  }
  const Database& database = *db;
  const CrossMineClassifier& model = trained->model;

  size_t hits = 0;
  for (TupleId id : test_ids) hits += predictions[id] == database.labels()[id];
  const double accuracy =
      Ratio(static_cast<double>(hits), static_cast<double>(test_ids.size()));

  const double lateness_p99 = Quantile(open.lateness_ms, 0.99);
  const double serve_p95 = Quantile(open.latency_ms, 0.95);
  const double serve_p99 = Quantile(open.latency_ms, 0.99);
  // A generator more than one inter-arrival interval late at p99 fell
  // behind schedule: it applied less load than stated, so the run is marked
  // invalid. Shorter stalls keep the load; their wait is in the latencies,
  // which run from the due time.
  const double max_lateness_ms = 1e3 / w.open_loop_rate;
  const bool valid = lateness_p99 <= max_lateness_ms;
  std::printf("reps: train_s=%s bulk_s=%s\n", JoinSeconds(train_s).c_str(),
              JoinSeconds(bulk_s).c_str());
  std::printf("rss: peak_mb after_setup=%.2f after_trains=%.2f at_end=%.2f\n", rss_setup_mb,
              rss_train_mb, PeakRssMiB());
  std::printf("rounds: serve_p50_ms=%s serve_sat_qps=%s\n", JoinSeconds(round_p50).c_str(),
              JoinSeconds(round_qps).c_str());
  std::printf("serve: open_loop rate=%g/s sent=%llu ok=%llu failed=%llu "
              "timed=%zu p95_ms=%.3f p99_ms=%.3f lateness_p99_ms=%.3f (limit %g) %s; "
              "saturation window=%d sent=%llu ok=%llu failed=%llu seconds=%.3f\n",
              w.open_loop_rate, static_cast<unsigned long long>(open.sent),
              static_cast<unsigned long long>(open.ok),
              static_cast<unsigned long long>(open.failed), open.latency_ms.size(),
              serve_p95, serve_p99, lateness_p99, max_lateness_ms,
              valid ? "valid" : "INVALID (generator fell behind schedule)",
              kSaturationWindow, static_cast<unsigned long long>(sat.sent),
              static_cast<unsigned long long>(sat.ok),
              static_cast<unsigned long long>(sat.failed), sat.seconds);
  if (!valid) result.correct = false;


  const double serve_p50 = Quantile(open.latency_ms, 0.50);
  result.E2e("setup_s", Median(setup_s), "s");
  result.E2e("train_s", Median(train_s), "s");
  result.E2e("predict_tps", static_cast<double>(num_targets) / Median(bulk_s), "tuples/s");
  result.E2e("accuracy", accuracy, "fraction");
  result.E2e("peak_rss_mb", PeakRssMiB(), "MiB");
  result.E2e("serve_p50_ms", serve_p50, "ms");
  result.E2e("serve_sat_qps", Ratio(static_cast<double>(sat.ok), sat.seconds), "req/s");

  if (args.trace) {
    // Offline single-id calls on the start of the request stream.
    std::vector<double> point_ms, explain_ms;
    for (size_t k = 0; k < std::min<size_t>(open.sent, kOfflinePointCalls); ++k) {
      const ServeRequest r = reqs.At(k);
      if (r.explain) {
        explain_ms.push_back(1e3 * Timed("core.Explain", [&] { model.Explain(database, r.id); }));
      } else {
        StatusOr<std::vector<ClassId>> one = Status::Internal("not run");
        point_ms.push_back(1e3 * Timed("core.PredictBatchChecked[1]", [&] {
                             one = loaded->PredictBatchChecked(database, {r.id});
                           }));
        result.Gate(one.ok() && (*one)[0] == predictions[r.id], "point predict differs");
      }
    }
    // Protocol codec on the workload's own lines and answers.
    const int codec_reps = 20;
    std::vector<ServeRequest> codec_reqs;
    for (size_t k = 0; k < open.sent; ++k) codec_reqs.push_back(reqs.At(k));
    double decode_s = Timed("serve.ParseRequest", [&] {
      for (int rep = 0; rep < codec_reps; ++rep) {
        for (const ServeRequest& r : codec_reqs) {
          if (!serve::ParseRequest(r.line).ok()) std::abort();
        }
      }
    });
    double encode_s = Timed("serve.Encode", [&] {
      for (int rep = 0; rep < codec_reps; ++rep) {
        for (const ServeRequest& r : codec_reqs) {
          std::string req_id = std::to_string(r.req_id);
          std::string line =
              r.explain ? serve::EncodeExplanation(predictions[r.id], -1, "", {}, req_id)
                        : serve::EncodePrediction(predictions[r.id], req_id);
          if (line.empty()) std::abort();
        }
      }
    });
    const double codec_calls =
        static_cast<double>(codec_reps) * static_cast<double>(codec_reqs.size());

    MetricsSnapshot t = train_registry.Snapshot();
    MetricsSnapshot p = predict_registry.Snapshot();
    const double prop_hits = Get(t, "train.propagation.cache_hits") +
                             Get(t, "train.propagation.cache_refreshes");
    const double prop_misses = Get(t, "train.propagation.cache_misses");
    const shard::ShardedClassifier::Stats& ss = trained->shard_stats;
    result.Layer("datagen.generate_s", Median(gen_s), "s");
    result.Layer("storage.open_s", Median(open_s), "s");
    result.Layer("storage.db_bytes", static_cast<double>(std::filesystem::file_size(db_path)), "bytes");
    result.Layer("storage.materializations",
                 static_cast<double>(ColumnMaterializationCount().load() - materializations0), "count");
    result.Layer("relational.index.build_s", Get(t, "train.index.build_seconds"), "s");
    result.Layer("relational.index.builds", static_cast<double>(index1.builds - index0.builds), "count");
    result.Layer("relational.index.hits", static_cast<double>(index1.hits - index0.hits), "count");
    result.Layer("relational.index.peak_bytes", static_cast<double>(index1.peak_bytes), "bytes");
    result.Layer("core.propagation.busy_s", Get(t, "train.phase.propagation_seconds"), "s");
    result.Layer("core.propagation.cache_hit_ratio", Ratio(prop_hits, prop_hits + prop_misses), "fraction");
    result.Layer("core.propagation.cache_misses", prop_misses, "count");
    result.Layer("core.propagation.peak_id_bytes", Get(t, "train.propagation.peak_id_bytes"), "bytes");
    result.Layer("core.literal_search.busy_s", Get(t, "train.phase.literal_search_seconds"), "s");
    result.Layer("core.literal_search.scored", Get(t, "train.literals_scored"), "count");
    result.Layer("core.literal_search.index_hits", Get(t, "train.index.hits"), "count");
    result.Layer("core.clause_builder.lookahead_busy_s", Get(t, "train.phase.lookahead_seconds"), "s");
    result.Layer("core.clause_builder.rounds", Get(t, "train.search.rounds"), "count");
    result.Layer("core.clause_builder.tasks", Get(t, "train.search.tasks"), "count");
    result.Layer("core.clause_builder.accept_ratio",
                 Ratio(Get(t, "train.literals_accepted"), Get(t, "train.literals_scored")), "fraction");
    result.Layer("core.sampling.busy_s", Get(t, "train.phase.sampling_seconds"), "s");
    result.Layer("core.sampling.kept_ratio",
                 Ratio(Get(t, "train.sampling.negatives_kept"),
                       Get(t, "train.sampling.negatives_considered")), "fraction");
    result.Layer("core.classifier.reestimate_busy_s", Get(t, "train.phase.reestimation_seconds"), "s");
    result.Layer("core.classifier.clauses", static_cast<double>(model.clauses().size()), "count");
    result.Layer("common.thread_pool.tasks", Get(t, "train.pool.tasks"), "count");
    result.Layer("common.thread_pool.lane_util",
                 Ratio(trained->cpu_seconds, trained->seconds * kLanes), "fraction");
    result.Layer("core.model_io.save_s", Median(save_s), "s");
    result.Layer("core.model_io.load_s", Median(load_s), "s");
    result.Layer("core.model_io.bytes", static_cast<double>(serialized.size()), "bytes");
    result.Layer("core.clause_eval.bulk_s", Median(bulk_s), "s");
    result.Layer("core.clause_eval.clauses_evaluated", Get(p, "predict.clauses_evaluated"), "count");
    result.Layer("core.clause_eval.default_fallbacks", Get(p, "predict.default_fallbacks"), "count");
    const double point_p50 = Quantile(point_ms, 0.50);
    result.Layer("core.classifier.point_p50_ms", point_p50, "ms");
    result.Layer("core.classifier.point_p95_ms", Quantile(point_ms, 0.95), "ms");
    result.Layer("core.classifier.explain_p50_ms", Quantile(explain_ms, 0.50), "ms");
    result.Layer("serve.protocol.decode_us", 1e6 * decode_s / codec_calls, "us");
    result.Layer("serve.protocol.encode_us", 1e6 * encode_s / codec_calls, "us");
    result.Layer("serve.server.overhead_p50_ms", serve_p50 - point_p50, "ms");
    // The open loop's tail: too host-sensitive at this run length for a
    // bounded end-to-end metric (see README.md), kept here unbounded.
    result.Layer("serve.open_loop.p95_ms", serve_p95, "ms");
    result.Layer("serve.open_loop.p99_ms", serve_p99, "ms");
    result.Layer("serve.server.mean_batch", Median(mean_batch), "count");
    result.Layer("serve.server.queue_highwater", queue_highwater, "count");
    result.Layer("serve.server.sheds", sheds, "count");
    result.Layer("serve.server.deadline_exceeded", deadline_exceeded, "count");
    result.Layer("shard.partition_s", Get(t, "train.shard.partition_seconds"), "s");
    result.Layer("shard.worker_s", Get(t, "train.shard.train_seconds"), "s");
    result.Layer("shard.merge_s", Get(t, "train.shard.merge_seconds"), "s");
    result.Layer("shard.clauses_in", static_cast<double>(ss.clauses_in), "count");
    result.Layer("shard.clauses_kept", static_cast<double>(ss.clauses_kept), "count");
    result.Layer("shard.keep_ratio",
                 Ratio(static_cast<double>(ss.clauses_kept), static_cast<double>(ss.clauses_in)),
                 "fraction");
    result.Layer("shard.retries", Get(t, "train.shard.retries"), "count");
    result.Layer("shard.crashed", Get(t, "train.shard.crashed"), "count");

    // Deterministic counters: a function of the workload and its data seed.
    std::printf("counters: core.literal_search.scored=%.0f core.clause_builder.tasks=%.0f "
                "core.propagation.cache_misses=%.0f core.classifier.clauses=%zu "
                "core.clause_eval.clauses_evaluated=%.0f shard.clauses_in=%llu "
                "shard.clauses_kept=%llu model.crc32=%08x\n",
                Get(t, "train.literals_scored"), Get(t, "train.search.tasks"), prop_misses,
                model.clauses().size(), Get(p, "predict.clauses_evaluated"),
                static_cast<unsigned long long>(ss.clauses_in),
                static_cast<unsigned long long>(ss.clauses_kept), Crc32(serialized));
  }

  const double fail_frac =
      Ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted));
  result.E2e("ok_frac", 1.0 - fail_frac, "fraction");
  // Human-readable end-to-end lines (traced runs print them too, although
  // their JSON carries only per-layer metrics).
  for (const auto& [name, m] : result.end_to_end) {
    std::printf("e2e: %s=%.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("e2e: fail_frac=%.6g fraction (%llu of %llu operations)\n", fail_frac,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  g_tracer.End(root_span);
  if (args.trace) {
    std::filesystem::create_directories(args.trace_dir, ec);
    std::string trace_path = args.trace_dir + "/" + w.name + "_seed" +
                             std::to_string(args.seed) + ".json";
    Status written = g_tracer.Write(trace_path);
    result.Op(written.ok(), "trace write: " + written.ToString());
    std::printf("trace: %zu spans -> %s\n", g_tracer.size(), trace_path.c_str());
  }
  std::filesystem::remove_all(args.out_dir, ec);
  PrintResult(result, args.trace);
  return 0;
}

/// Parses a whole non-empty decimal argument; false on any trailing text.
bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0';
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    double number = 0.0;
    bool numeric = flag == "--seed" || flag == "--data-seed" ||
                   flag == "--seconds" || flag == "--trace";
    if (numeric && (!ParseNumber(value, &number) || number < 0)) return false;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = static_cast<uint64_t>(number);
    } else if (flag == "--data-seed") {
      args->data_seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      args->seconds = number;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--crossmine") {
      args->crossmine = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "                 [--data-seed N] [--out-dir DIR] [--trace-dir DIR]\n"
                 "                 [--crossmine PATH]\n");
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    if (w.sharded && args.crossmine.empty()) {
      std::fprintf(stderr, "perfbench: %s needs --crossmine\n", w.name);
      return 2;
    }
    return Run(w, args);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
