// knnbench_trace: the traced, in-process replay of the KNNQL serving
// benchmark. It regenerates a workload's statements from its seed and
// pushes them through each layer's public functions, recording a span
// around every call from this file (the program itself is not
// instrumented). Spans stay in memory and are written out at the end.
//
//   knnbench_trace --workload W --seed S --dir D --join-dir J
//                  --spans FILE --wal-dir DIR
//
// D holds the workload's relation CSVs and J the join_mix relation CSVs
// of the same seed (the same directory on join_mix). Core shapes the
// workload does not send are timed on the join_mix relations. Recovery
// is timed over --wal-dir, a copy of the served run's data directory.
// Prints one JSON object of per-layer metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "model.h"
#include "src/data/dataset_io.h"
#include "src/durability/durability_manager.h"
#include "src/durability/snapshot.h"
#include "src/durability/wal.h"
#include "src/engine/query_engine.h"
#include "src/index/index_factory.h"
#include "src/index/knn_searcher.h"
#include "src/lang/parser.h"
#include "src/planner/optimizer.h"
#include "src/server/wire.h"

namespace kb {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ------------------------------------------------------------ tracer

/// One span: a named interval, the span that caused it, and the id of
/// the request (statement index) it belongs to.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
  std::uint64_t request;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  bool enabled = true;

  int Begin(const char* name, std::uint64_t request) {
    if (!enabled) return -1;
    spans_.push_back({name, Now(), 0, stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int span) {
    if (span < 0) return;
    spans_[span].end_ns = Now();
    stack_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }

  /// Mean duration in microseconds of the spans named `name`.
  double MeanUs(const char* name) const {
    double sum = 0;
    std::size_t n = 0;
    for (const Span& s : spans_) {
      if (std::string_view(s.name) == name) sum += s.end_ns - s.start_ns, ++n;
    }
    return n ? sum / n / 1e3 : 0;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"span\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << "}\n";
    }
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t request)
      : t_(t), span_(t.Begin(name, request)) {}
  ~Scope() { t_.End(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int span_;
};

// ----------------------------------------------------------- helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v.size() % 2 ? v[v.size() / 2] : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
}

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

template <typename T>
T Must(knnq::Result<T> r, const char* what) {
  if (!r.ok()) throw std::runtime_error(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void Must(const knnq::Status& s, const char* what) {
  if (!s.ok()) throw std::runtime_error(std::string(what) + ": " + s.ToString());
}

knnq::QuerySpec Bind(const knnq::QueryEngine& engine, const std::string& text) {
  const auto statement = Must(knnq::knnql::ParseStatement(text), "parse");
  return Must(engine.BindQuery(std::get<knnq::knnql::Query>(statement.body)), "bind");
}

knnq::durability::SnapshotImage ImageOf(const std::vector<std::string>& names,
                                        const std::vector<knnq::PointSet>& sets) {
  knnq::durability::SnapshotImage image;
  for (std::size_t i = 0; i < names.size(); ++i) {
    knnq::durability::SnapshotRelation rel;
    rel.name = names[i];
    rel.points = sets[i];
    rel.next_id = static_cast<knnq::PointId>(sets[i].size());
    image.relations.push_back(std::move(rel));
  }
  return image;
}

std::vector<knnq::DmlRequest> WriteRequests(const std::string& rel,
                                            const std::vector<Write>& writes) {
  std::vector<knnq::DmlRequest> out;
  for (const Write& w : writes) {
    out.push_back(knnq::DmlRequest::MutateOps(
        rel, {w.insert ? knnq::MutationOp::Insert(w.x, w.y)
                       : knnq::MutationOp::Erase(w.id)}));
  }
  return out;
}

// ------------------------------------------------------------- main

int Main(const std::map<std::string, std::string>& args) {
  const Workload w = GetWorkload(args.at("--workload"));
  const std::uint64_t seed = std::stoull(args.at("--seed"));
  const std::string dir = args.at("--dir");
  const std::string join_dir = args.at("--join-dir");
  const Workload jm = GetWorkload("join_mix");
  std::map<std::string, double> m;
  Tracer tracer(Clock::now());

  // ---- data: LoadPoints on the workload's input files (median of 3)
  std::vector<std::string> names;
  std::vector<knnq::PointSet> sets;
  {
    std::vector<double> loads;
    for (int rep = 0; rep < 3; ++rep) {
      names.clear(), sets.clear();
      const auto t = Clock::now();
      for (const RelationSpec& r : w.relations) {
        Scope s(tracer, "data.load_points", 0);
        names.push_back(r.name);
        sets.push_back(Must(knnq::LoadPoints(CsvPath(dir, r)), "load"));
      }
      loads.push_back(Since(t));
    }
    m["data.csv_load_s"] = Median(loads);
  }

  // ---- index: BuildIndex on the workload's relations (median of 3)
  {
    std::vector<double> builds;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t = Clock::now();
      for (const knnq::PointSet& set : sets) {
        Scope s(tracer, "index.build", 0);
        Must(knnq::BuildIndex(set, knnq::IndexOptions{}), "build");
      }
      builds.push_back(Since(t));
    }
    m["index.build_s"] = Median(builds);
  }

  // ---- the engine, configured like the served one
  knnq::Catalog catalog;
  for (std::size_t i = 0; i < names.size(); ++i) {
    Must(catalog.AddRelation(names[i], sets[i]), "catalog");
  }
  if (w.name != "join_mix") {
    for (const RelationSpec& r : jm.relations) {
      if (r.name == jm.write_name()) continue;  // no join reads it
      Must(catalog.AddRelation(r.name, Must(knnq::LoadPoints(CsvPath(join_dir, r)), "load")),
           "catalog");
    }
  }
  knnq::EngineOptions options;
  options.num_threads = kThreads;
  options.cache_mb = kCacheMb;
  knnq::QueryEngine engine(std::move(catalog), options);
  const StatementStream stream(w, seed);
  const StatementStream join_stream(jm, seed);

  // ---- serving layers: split -> parse -> bind -> plan -> run -> render
  const std::size_t replay = w.name == "join_mix" ? 60 : 2000;
  auto serve_one = [&](std::uint64_t i) {
    const Query q = stream.At(i);
    Scope request(tracer, "request", i);
    knnq::server::StatementSplitter splitter;
    std::string text;
    {
      Scope s(tracer, "server.split", i);
      splitter.Feed(q.text + "\n");
      text = *splitter.Next();
    }
    knnq::Result<knnq::knnql::Statement> statement = knnq::Status::Internal("unset");
    {
      Scope s(tracer, "lang.parse", i);
      statement = knnq::knnql::ParseStatement(text);
    }
    knnq::Result<knnq::QuerySpec> spec = knnq::Status::Internal("unset");
    {
      Scope s(tracer, "lang.bind", i);
      spec = engine.BindQuery(std::get<knnq::knnql::Query>(statement->body));
    }
    {
      Scope s(tracer, "planner.plan", i);
      Must(knnq::Optimize(engine.catalog(), *spec, engine.options().planner), "plan");
    }
    knnq::EngineResult run;
    {
      Scope s(tracer, "engine.run", i);
      run = engine.Run(*spec);
    }
    if (!run.ok()) throw std::runtime_error("run: " + run.status.ToString());
    Scope s(tracer, "server.render", i);
    const std::string record = knnq::server::JsonQueryRecord(text, run);
    if (record.empty()) throw std::runtime_error("render");
  };
  // Warm the cache, time an untraced pass, then make the traced pass.
  // Two passes of a few hundred ms differ by more than the tracer
  // costs, so the overhead is computed instead: the spans one request
  // records, times the cost of one span (Begin + End, timed over a
  // million spans on a tracer of its own), against the untraced time
  // of one request.
  tracer.enabled = false;
  for (std::uint64_t i = 0; i < replay; ++i) serve_one(i);
  const auto untraced_start = Clock::now();
  for (std::uint64_t i = 0; i < replay; ++i) serve_one(i);
  const double untraced_s = Since(untraced_start) / replay;
  tracer.enabled = true;
  const std::size_t spans_before = tracer.size();
  for (std::uint64_t i = 0; i < replay; ++i) serve_one(i);
  const double spans_per_request =
      static_cast<double>(tracer.size() - spans_before) / replay;
  double span_s = 0;
  {
    constexpr int kSpans = 1000000;
    Tracer probe(Clock::now());
    const int root = probe.Begin("request", 0);
    const auto start = Clock::now();
    for (int j = 0; j < kSpans - 1; ++j) probe.End(probe.Begin("span", j));
    span_s = Since(start) / (kSpans - 1);
    probe.End(root);
  }
  m["trace.overhead_pct"] = spans_per_request * span_s / untraced_s * 100;
  m["server.split_us"] = tracer.MeanUs("server.split");
  m["lang.parse_us"] = tracer.MeanUs("lang.parse");
  m["lang.bind_us"] = tracer.MeanUs("lang.bind");
  m["planner.plan_us"] = tracer.MeanUs("planner.plan");
  m["engine.run_us"] = tracer.MeanUs("engine.run");
  m["server.render_us"] = tracer.MeanUs("server.render");

  // ---- engine dispatch: SubmitQuery to callback, minus execution wall,
  // with as many queries in flight as the workload's readers keep
  {
    std::mutex mu;
    std::condition_variable cv;
    int in_flight = 0;
    bool refused = false;
    std::vector<double> dispatch;
    const std::size_t n = w.name == "join_mix" ? 200 : 4000;
    for (std::uint64_t i = 0; i < n; ++i) {
      knnq::QuerySpec spec = Bind(engine, stream.At(i).text);
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return in_flight < w.connections * w.depth; });
        ++in_flight;
      }
      const auto submitted = Clock::now();
      const bool queued = engine.SubmitQuery(std::move(spec), [&, submitted](knnq::EngineResult r) {
        const double total = Since(submitted);
        std::lock_guard<std::mutex> lock(mu);
        dispatch.push_back((total - r.stats.wall_seconds) * 1e3);
        --in_flight;
        cv.notify_all();
      });
      if (!queued) {
        std::lock_guard<std::mutex> lock(mu);
        --in_flight;
        refused = true;
        break;
      }
    }
    {
      // Callbacks touch this block's locals: let them all finish.
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight == 0; });
    }
    if (refused) throw std::runtime_error("SubmitQuery refused");
    m["engine.dispatch_ms_p50"] = Percentile(dispatch, 50);
    m["engine.dispatch_ms_p99"] = Percentile(dispatch, 99);
  }

  // ---- core: PhysicalPlan execution after Optimize, per shape
  const bool joins_native = w.name == "join_mix";
  for (int sh = 0; sh < kNumShapes; ++sh) {
    const Shape shape = static_cast<Shape>(sh);
    const bool native = joins_native != (shape == Shape::kTwoSelects);
    const std::size_t n = shape == Shape::kTwoSelects ? 200 : 12;
    std::vector<double> exec;
    double nbrs = 0, pruned = 0;
    std::uint64_t found = 0;
    for (std::uint64_t i = 0; found < n; ++i) {
      const Query q = native ? stream.At(i) : join_stream.OfShape(shape, i);
      if (q.shape != shape) continue;
      ++found;
      const knnq::QuerySpec spec = Bind(engine, q.text);
      const auto plan =
          Must(knnq::Optimize(engine.catalog(), spec, engine.options().planner), "plan");
      knnq::ExecStats stats;
      const int span = tracer.Begin(ShapeName(shape), i);
      const auto t = Clock::now();
      Must(plan.Execute(&stats), "execute");
      exec.push_back(Since(t) * 1e3);
      tracer.End(span);
      nbrs += stats.neighborhoods_computed;
      pruned += stats.candidates_pruned;
    }
    const std::string p = std::string("core.") + ShapeName(shape);
    m[p + ".exec_ms_p50"] = Median(exec);
    m[p + ".neighborhoods_per_query"] = nbrs / n;
    m[p + ".pruned_per_query"] = pruned / n;
  }

  // ---- index: getkNN on the workload's focal points and k
  {
    const auto* rel = Must(engine.catalog().Get(names[0]), "relation");
    knnq::KnnSearcher searcher(*rel->index);
    const std::size_t n = 2000;
    std::size_t total = 0;
    const auto t = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
      const Query q = w.name == "join_mix" ? join_stream.OfShape(Shape::kSelectInner, i)
                                           : stream.At(i);
      Scope s(tracer, "index.getknn", i);
      total += searcher.GetKnn(knnq::Point{.id = -1, .x = q.fx, .y = q.fy}, q.k2).size();
    }
    m["index.getknn_us"] = Since(t) * 1e6 / n;
    if (total == 0) throw std::runtime_error("getknn returned nothing");
  }

  // ---- writes: the workload's write schedule, on its write relation
  const int wr_rel = w.write_relation;
  std::vector<Pt> initial;
  for (const knnq::Point& p : sets[wr_rel]) initial.push_back(Pt{p.id, p.x, p.y});
  const std::vector<Write> writes = WriteSchedule(initial, WriteRegion(), 1000, seed);
  {
    auto index = Must(knnq::BuildIndex(sets[wr_rel], knnq::IndexOptions{}), "build");
    std::vector<double> ins, era;
    for (std::size_t j = 0; j < writes.size(); ++j) {
      const Write& wr = writes[j];
      Scope s(tracer, wr.insert ? "index.insert" : "index.erase", j);
      const auto t = Clock::now();
      Must(wr.insert ? index->Insert(knnq::Point{.id = wr.id, .x = wr.x, .y = wr.y})
                     : index->Erase(wr.id),
           "index write");
      (wr.insert ? ins : era).push_back(Since(t) * 1e6);
    }
    double si = 0, se = 0;
    for (double v : ins) si += v;
    for (double v : era) se += v;
    m["index.insert_us"] = si / ins.size();
    m["index.erase_us"] = se / era.size();
  }
  {
    std::vector<double> dml;
    for (const knnq::DmlRequest& req : WriteRequests(names[wr_rel], writes)) {
      Scope s(tracer, "engine.dml", 0);
      const auto t = Clock::now();
      const knnq::EngineResult r = engine.ExecuteDml(req);
      dml.push_back(Since(t) * 1e3);
      if (!r.ok() || r.rows_affected != 1) throw std::runtime_error("dml failed");
    }
    double sum = 0;
    for (double v : dml) sum += v;
    m["engine.dml_ms"] = sum / dml.size();
  }

  // ---- durability
  const fs::path tmp_dir = fs::path(dir) / "trace_durability";
  fs::remove_all(tmp_dir);
  fs::create_directories(tmp_dir);
  {
    // WAL append under the served flush policy.
    knnq::durability::WalWriter::Options wal_options;
    wal_options.sync = knnq::durability::WalSyncPolicy::kInterval;
    wal_options.sync_interval_ops = kWalSyncIntervalOps;
    auto writer = Must(knnq::durability::WalWriter::Open(
                           (tmp_dir / "append.wal").string(), wal_options, 0),
                       "wal open");
    const auto requests = WriteRequests(names[wr_rel], writes);
    const auto t = Clock::now();
    for (std::size_t j = 0; j < requests.size(); ++j) {
      Scope s(tracer, "durability.wal_append", j);
      Must(writer.Append(j + 1, requests[j]), "append");
    }
    m["durability.wal_append_us"] = Since(t) * 1e6 / requests.size();
    m["durability.syncs_per_write"] =
        static_cast<double>(writer.syncs()) / requests.size();
  }
  {
    const auto image = ImageOf(names, sets);
    std::vector<double> wr, rd;
    const std::string path = (tmp_dir / "catalog.snapshot").string();
    for (int rep = 0; rep < 3; ++rep) {
      auto t = Clock::now();
      {
        Scope s(tracer, "durability.write_snapshot", 0);
        Must(knnq::durability::WriteSnapshot(path, image), "snapshot write");
      }
      wr.push_back(Since(t));
      t = Clock::now();
      {
        Scope s(tracer, "durability.read_snapshot", 0);
        Must(knnq::durability::ReadSnapshot(path), "snapshot read");
      }
      rd.push_back(Since(t));
    }
    m["durability.snapshot_write_s"] = Median(wr);
    m["durability.snapshot_load_s"] = Median(rd);
  }
  {
    const std::string data_dir = args.at("--wal-dir");
    knnq::durability::DurabilityOptions d;
    d.data_dir = data_dir;
    d.sync = knnq::durability::WalSyncPolicy::kInterval;
    auto manager = Must(knnq::durability::DurabilityManager::Open(d), "reopen");
    knnq::Catalog cat;
    Must(manager->SeedCatalog(&cat), "seed");
    knnq::EngineOptions eo;
    eo.num_threads = 1;
    eo.wal = manager.get();
    knnq::QueryEngine recovered(std::move(cat), eo);
    const auto t = Clock::now();
    knnq::durability::RecoveryReport report;
    {
      Scope s(tracer, "durability.recover", 0);
      report = Must(manager->Recover(&recovered), "recover");
    }
    const double took = Since(t);
    m["durability.replayed_records"] = static_cast<double>(report.replayed_records);
    m["durability.replay_us_per_record"] =
        took * 1e6 / std::max<std::uint64_t>(1, report.replayed_records);
  }
  fs::remove_all(tmp_dir);

  tracer.Write(args.at("--spans"));
  std::string out = "{";
  for (const auto& [k, v] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += (out.size() > 1 ? ", \"" : "\"") + k + "\": " + buf;
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace kb

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  try {
    return kb::Main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "knnbench_trace: %s\n", e.what());
    return 1;
  }
}
