// knnbench_load: input generator, load client and oracle check of the
// KNNQL serving benchmark. It talks to `knnq_cli serve` over loopback
// and never links the program under test.
//
//   knnbench_load gen    --workload W --seed S --dir D
//   knnbench_load run    --workload W --seed S --dir D --port P
//                        --server-pid PID --seconds T --acked FILE
//   knnbench_load verify --workload W --seed S --dir D --port P
//                        --acked FILE
//   knnbench_load serve-flags
//
// `run` drives the closed-loop query connections for a warm-up and
// then a timed window, then one closed-loop writer connection, checks
// answers against the brute-force oracle, and prints one JSON object.
// It runs at most kThreads threads. `verify` checks the write region
// of the server against the oracle's replay of the acknowledged
// writes. `serve-flags` prints the serving configuration of model.h as
// `knnq_cli serve` flags: those of every server, and those a durable
// server adds.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "model.h"
#include "oracle.h"

namespace kb {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- args

struct Args {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values.find(key);
    if (it != values.end()) return it->second;
    if (fallback.empty()) throw std::runtime_error("missing " + key);
    return fallback;
  }
  long long Int(const std::string& key, const std::string& fallback = "") const {
    return std::stoll(Get(key, fallback));
  }
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) args.values[argv[i]] = argv[i + 1];
  return args;
}

// --------------------------------------------------------- connection

class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("cannot connect to port " + std::to_string(port));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void Send(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::send(fd_, text.data() + off, text.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads whatever has arrived (blocking until something does).
  void Fill() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("server closed the connection");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }

  /// Pops one complete response line, if buffered.
  bool Pop(std::string* line) {
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl == std::string::npos) {
      scanned_ = buf_.size();
      return false;
    }
    line->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    scanned_ = 0;
    return true;
  }

  std::string ReadLine() {
    std::string line;
    while (!Pop(&line)) Fill();
    return line;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t scanned_ = 0;
};

// ------------------------------------------------------ response parse

double NumberAfter(const std::string& s, const char* key, std::size_t from = 0) {
  const std::size_t at = s.find(key, from);
  if (at == std::string::npos) return -1;
  return std::strtod(s.c_str() + at + std::strlen(key), nullptr);
}

bool IsOk(const std::string& s) {
  return s.find("\"status\": \"ok\"") != std::string::npos;
}

/// Result rows as id rows: points (id), pairs (outer, inner) and
/// triplets (a, b, c).
std::vector<Row> ParseRows(const std::string& s) {
  std::vector<Row> rows;
  const std::size_t start = s.find("\"rows\": [");
  if (start == std::string::npos) return rows;
  const std::size_t end = s.find("\"stats\": ", start);
  const bool triplets = s.find("\"result_type\": \"triplets\"") != std::string::npos;
  const bool pairs = s.find("\"result_type\": \"pairs\"") != std::string::npos;
  std::vector<long long> ids;
  const char* key = triplets ? "\": " : "\"id\": ";
  for (std::size_t at = s.find(key, start); at < end; at = s.find(key, at + 1)) {
    if (triplets) {
      // keys "a", "b", "c" only
      if (at < 2 || s[at - 2] != '"') continue;
    }
    ids.push_back(std::strtoll(s.c_str() + at + std::strlen(key), nullptr, 10));
  }
  const std::size_t width = triplets ? 3 : (pairs ? 2 : 1);
  for (std::size_t i = 0; i + width <= ids.size(); i += width) {
    Row r{0, 0, 0};
    for (std::size_t j = 0; j < width; ++j) r[j] = ids[i + j];
    rows.push_back(r);
  }
  return rows;
}

// ------------------------------------------------------------- stats

double CpuSecondsOf(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), {});
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::vector<std::string> fields;
  std::size_t pos = close + 2;
  while (pos < text.size()) {
    const std::size_t sp = text.find(' ', pos);
    fields.push_back(text.substr(pos, sp - pos));
    if (sp == std::string::npos) break;
    pos = sp + 1;
  }
  // fields[0] is field 3 (state); utime and stime are fields 14 and 15.
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (std::stod(fields[11]) + std::stod(fields[12])) / ticks;
}

/// The host's CPU steal and total time (jiffies) from /proc/stat: how
/// much of the window the hypervisor gave to other guests.
std::array<double, 2> HostStealAndTotal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::array<double, 2> out{0, 0};
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    in >> v;
    out[1] += v;
    if (field == 7) out[0] = v;  // user nice system idle iowait irq softirq steal
  }
  return out;
}

double SelfCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec * 1e-6;
}

std::vector<std::vector<Pt>> LoadRelations(const Workload& w, const std::string& dir) {
  std::vector<std::vector<Pt>> rels;
  for (const RelationSpec& r : w.relations) rels.push_back(ReadCsv(CsvPath(dir, r)));
  return rels;
}

std::string Json(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += "\"" + k + "\": " + buf;
  }
  return out + "}";
}

// ------------------------------------------------------------- gen

int CmdGen(const Args& args) {
  const Workload w = GetWorkload(args.Get("--workload"));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("--seed"));
  for (const RelationSpec& r : w.relations) {
    WriteCsv(Generate(r.dist, r.n, seed, r.stream), CsvPath(args.Get("--dir"), r));
  }
  return 0;
}

// ------------------------------------------------------------- run

/// One answered query as the client saw it.
struct Sample {
  std::uint64_t index = 0;
  double latency = 0;   // seconds
  double done = 0;      // when the answer came back, seconds from the start
  double wall_ms = 0;   // the server's execution wall time
  bool ok = false;
  bool in_window = false;
  int shape = 0;
  double cache_hits = 0, cache_misses = 0, points = 0, scanned = 0, skipped = 0;
  double cache_bytes = 0;
  std::vector<Row> rows;  // kept for checked queries only
};

struct RunState {
  const StatementStream* stream;
  Clock::time_point t0;
  double warmup = 0, seconds = 0;
  int server_pid = 0;
  std::uint64_t check_every = 1;
  std::atomic<std::uint64_t> next{0};
  // CPU readings at the start and the end of the window, each taken by
  // the first thread that passes it.
  std::array<std::atomic<bool>, 2> marked{};
  std::array<double, 2> server_cpu{}, self_cpu{};
  std::array<std::array<double, 2>, 2> steal{};
};

void MarkWindow(RunState& st, double now) {
  for (int j = 0; j < 2; ++j) {
    if (now < st.warmup + j * st.seconds) break;
    if (st.marked[j].load(std::memory_order_relaxed) || st.marked[j].exchange(true)) {
      continue;
    }
    st.server_cpu[j] = CpuSecondsOf(st.server_pid);
    st.self_cpu[j] = SelfCpuSeconds();
    st.steal[j] = HostStealAndTotal();
  }
}

void Record(RunState& st, Sample& s, const std::string& resp, double latency) {
  s.latency = latency;
  s.done = Seconds(st.t0, Clock::now());
  s.ok = IsOk(resp);
  const std::size_t stats = resp.rfind("\"stats\": ");
  if (stats != std::string::npos) {
    s.wall_ms = NumberAfter(resp, "\"wall_ms\": ", stats);
    s.cache_hits = NumberAfter(resp, "\"cache_hits\": ", stats);
    s.cache_misses = NumberAfter(resp, "\"cache_misses\": ", stats);
    s.points = NumberAfter(resp, "\"points_compared\": ", stats);
    s.scanned = NumberAfter(resp, "\"blocks_scanned\": ", stats);
    s.skipped = NumberAfter(resp, "\"blocks_skipped\": ", stats);
    s.cache_bytes = NumberAfter(resp, "\"cache_bytes\": ", stats);
  }
  if (s.ok && s.index % st.check_every == 0) {
    s.rows = ParseRows(resp);
  }
}

/// One closed-loop connection keeping `depth` queries outstanding:
/// a new statement goes out each time an answer comes back. Answers
/// carry the connection's request id (1, 2, ... in send order).
void ReaderLoop(RunState& st, int port, int depth, std::vector<Sample>* out) {
  Conn conn(port);
  const double end = st.warmup + st.seconds;
  std::map<std::uint64_t, std::pair<Sample, Clock::time_point>> inflight;
  std::uint64_t next_id = 1;
  std::string resp;
  for (;;) {
    const double now = Seconds(st.t0, Clock::now());
    MarkWindow(st, now);
    if (now < end) {
      std::string batch;
      while (static_cast<int>(inflight.size()) < depth) {
        Sample s;
        s.index = st.next++;
        const Query q = st.stream->At(s.index);
        s.shape = static_cast<int>(q.shape);
        s.in_window = now >= st.warmup;
        batch += q.text + "\n";
        inflight[next_id++] = {std::move(s), Clock::now()};
      }
      if (!batch.empty()) conn.Send(batch);
    } else if (inflight.empty()) {
      break;
    }
    conn.Fill();
    while (conn.Pop(&resp)) {
      const auto id = static_cast<std::uint64_t>(NumberAfter(resp, "{\"id\": "));
      const auto it = inflight.find(id);
      if (it == inflight.end()) throw std::runtime_error("unexpected response id");
      Sample& s = it->second.first;
      Record(st, s, resp, Seconds(it->second.second, Clock::now()));
      out->push_back(std::move(s));
      inflight.erase(it);
    }
  }
}

struct WriterResult {
  std::vector<double> latency;   // from send to ack, seconds
  std::vector<int> acked;        // per write: 1 applied, 0 failed
};

/// Closed-loop writer after the read window: one write at a time,
/// each timed from its send to its ack.
void PostWriter(int port, const std::vector<Write>& writes, const char* rel,
                WriterResult* out) {
  Conn conn(port);
  for (const Write& w : writes) {
    const auto t = Clock::now();
    conn.Send(WriteText(rel, w) + "\n");
    const std::string ack = conn.ReadLine();
    out->latency.push_back(Seconds(t, Clock::now()));
    out->acked.push_back(IsOk(ack) && NumberAfter(ack, "\"rows_affected\": ") == 1 ? 1 : 0);
  }
}

int CmdRun(const Args& args) {
  const Workload w = GetWorkload(args.Get("--workload"));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("--seed"));
  const int port = static_cast<int>(args.Int("--port"));
  const int depth = w.depth;
  const auto rels = LoadRelations(w, args.Get("--dir"));
  const StatementStream stream(w, seed);

  RunState st;
  st.stream = &stream;
  st.warmup = kWarmupMs / 1000.0;
  st.seconds = std::stod(args.Get("--seconds"));
  st.server_pid = static_cast<int>(args.Int("--server-pid"));
  // Checked queries: every 512th two_selects statement, every 8th
  // join_mix statement.
  st.check_every = w.name == "two_selects" ? 512 : 8;

  const std::vector<Write> writes =
      WriteSchedule(rels[w.write_relation], WriteRegion(), w.post_writes, seed);

  std::vector<std::vector<Sample>> samples(w.connections);
  WriterResult wr;
  st.t0 = Clock::now();
  {
    // Each reader has a thread; the calling thread then drives the writer.
    std::vector<std::thread> pool;
    if (w.connections > kThreads) throw std::runtime_error("more connections than threads");
    for (int c = 0; c < w.connections; ++c) {
      pool.emplace_back([&, c] { ReaderLoop(st, port, depth, &samples[c]); });
    }
    for (auto& t : pool) t.join();
    PostWriter(port, writes, w.write_name(), &wr);
  }

  // ---- metrics over the timed window. qps, p50 and p90 are medians
  // over slices of kSliceSeconds (by answer time): a burst of load from
  // another tenant of the host that hits a few slices moves the
  // window's totals but not the median slice.
  const int num_slices = std::max(1, static_cast<int>(st.seconds / kSliceSeconds));
  const double slice_len = st.seconds / num_slices;
  std::vector<std::vector<double>> slice_lat(num_slices);
  std::vector<double> lat, nonexec;
  std::map<int, std::vector<double>> shape_lat;
  double hits = 0, misses = 0, points = 0, scanned = 0, skipped = 0, cache_bytes = 0;
  std::uint64_t answered = 0, errors = 0;
  for (const auto& conn : samples) {
    for (const Sample& s : conn) {
      if (!s.ok) ++errors;
      if (!s.in_window) continue;
      ++answered;
      lat.push_back(s.latency * 1e3);
      const double slice = std::floor((s.done - st.warmup) / slice_len);
      if (slice >= 0 && slice < num_slices) {
        slice_lat[static_cast<int>(slice)].push_back(s.latency * 1e3);
      }
      nonexec.push_back(s.latency * 1e3 - s.wall_ms);
      shape_lat[s.shape].push_back(s.latency * 1e3);
      hits += s.cache_hits, misses += s.cache_misses, points += s.points;
      scanned += s.scanned, skipped += s.skipped;
      cache_bytes = std::max(cache_bytes, s.cache_bytes);
    }
  }
  const double server_cpu = st.server_cpu[1] - st.server_cpu[0];

  // ---- oracle checks
  Oracle oracle(&rels);
  std::vector<std::pair<Query, const Sample*>> checks;
  std::uint64_t checked = 0, mismatches = 0, nonempty = 0;
  std::string first_mismatch;
  for (const auto& conn : samples) {
    for (const Sample& s : conn) {
      if (s.ok && s.index % st.check_every == 0) {
        checks.push_back({stream.At(s.index), &s});
        oracle.Plan(checks.back().first);
      }
    }
  }
  oracle.Prepare(kThreads);
  std::vector<Verdict> verdicts(checks.size());
  ParallelFor(checks.size(), kThreads, [&](std::size_t i) {
    verdicts[i] = oracle.Check(checks[i].first, checks[i].second->rows);
  });
  for (std::size_t i = 0; i < checks.size(); ++i) {
    ++checked;
    if (!checks[i].second->rows.empty()) ++nonempty;
    if (!verdicts[i].ok) {
      ++mismatches;
      if (first_mismatch.empty()) {
        first_mismatch = checks[i].first.text + ": " + verdicts[i].why;
      }
    }
  }

  // ---- acknowledged writes, for verify
  {
    std::ofstream acked(args.Get("--acked"));
    for (int a : wr.acked) acked << a << "\n";
  }
  std::uint64_t failed_writes = 0;
  for (int a : wr.acked) failed_writes += a ? 0 : 1;

  std::map<std::string, double> m;
  m["queries"] = static_cast<double>(answered);
  {
    std::vector<double> qps, p50, p90;
    for (const auto& v : slice_lat) {
      qps.push_back(v.size() / slice_len);
      p50.push_back(Percentile(v, 50));
      p90.push_back(Percentile(v, 90));
    }
    m["qps"] = Percentile(qps, 50);
    m["p50_ms"] = Percentile(p50, 50);
    m["p90_ms"] = Percentile(p90, 50);
    m["window_qps"] = answered / st.seconds;
    m["window_p99_ms"] = Percentile(lat, 99);
  }
  m["cpu_ms_per_op"] = server_cpu * 1e3 / std::max<double>(1, answered);
  m["nonexec_ms_p50"] = Percentile(nonexec, 50);
  m["nonexec_ms_p99"] = Percentile(nonexec, 99);
  m["client_cpu_us_per_req"] =
      (st.self_cpu[1] - st.self_cpu[0]) * 1e6 / std::max<double>(1, answered);
  m["cache_mib_max"] = cache_bytes / (1 << 20);
  m["host_steal_share"] = (st.steal[1][0] - st.steal[0][0]) /
                          std::max(1.0, st.steal[1][1] - st.steal[0][1]);
  m["cache_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  m["points_compared_per_query"] = points / std::max<double>(1, answered);
  m["blocks_skipped_share"] = scanned + skipped > 0 ? skipped / (scanned + skipped) : 0;
  m["errors"] = static_cast<double>(errors);
  m["checked"] = static_cast<double>(checked);
  m["nonempty_checked"] = static_cast<double>(nonempty);
  m["mismatches"] = static_cast<double>(mismatches);
  std::uint64_t sent_total = 0;
  for (const auto& conn : samples) sent_total += conn.size();
  m["sent_total"] = static_cast<double>(sent_total);
  for (const auto& [shape, v] : shape_lat) {
    const std::string name = ShapeName(static_cast<Shape>(shape));
    double sum = 0;
    for (double x : v) sum += x;
    m["shape." + name + ".count"] = static_cast<double>(v.size());
    m["shape." + name + ".p50_ms"] = Percentile(v, 50);
    m["shape." + name + ".total_ms"] = sum;
  }
  {
    // The write percentiles are medians over kWriteGroups groups of
    // consecutive writes (each under a second long), for the reason the
    // read percentiles are medians over slices.
    std::vector<double> p50, p90;
    const std::size_t group = std::max<std::size_t>(1, wr.latency.size() / kWriteGroups);
    for (std::size_t g = 0; g + group <= wr.latency.size(); g += group) {
      std::vector<double> ms;
      for (std::size_t j = g; j < g + group; ++j) ms.push_back(wr.latency[j] * 1e3);
      p50.push_back(Percentile(ms, 50));
      p90.push_back(Percentile(ms, 90));
    }
    m["writes"] = static_cast<double>(writes.size());
    m["writes_failed"] = static_cast<double>(failed_writes);
    m["write_p50_ms"] = Percentile(p50, 50);
    m["write_p90_ms"] = Percentile(p90, 50);
  }
  std::printf("%s\n", Json(m).c_str());
  if (!first_mismatch.empty()) std::fprintf(stderr, "mismatch: %s\n", first_mismatch.c_str());
  return 0;
}

// -------------------------------------------------------- serve-flags

/// {"serve": flags of every server, "durable": flags added with --data-dir}
int CmdServeFlags() {
  std::printf("{\"serve\": [\"--threads\", \"%d\", \"--cache-mb\", \"%d\"], "
              "\"durable\": [\"--wal-sync\", \"interval\", \"--wal-sync-interval-ops\", "
              "\"%d\", \"--snapshot-interval-ops\", \"0\"]}\n",
              kThreads, kCacheMb, kWalSyncIntervalOps);
  return 0;
}

// ------------------------------------------------------------- verify

int CmdVerify(const Args& args) {
  const Workload w = GetWorkload(args.Get("--workload"));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("--seed"));
  const int port = static_cast<int>(args.Int("--port"));
  const auto rels = LoadRelations(w, args.Get("--dir"));
  const auto& initial = rels[w.write_relation];
  const StatementStream stream(w, seed);
  std::vector<int> acked;
  {
    std::ifstream in(args.Get("--acked"));
    for (int a; in >> a;) acked.push_back(a);
  }
  const auto writes = WriteSchedule(initial, WriteRegion(), acked.size(), seed);
  // Replay the acknowledged writes, in order, onto the initial state.
  std::map<long long, Pt> state;
  for (const Pt& p : initial) state[p.id] = p;
  for (std::size_t j = 0; j < writes.size(); ++j) {
    if (!acked[j]) continue;
    if (writes[j].insert) {
      state[writes[j].id] = Pt{writes[j].id, writes[j].x, writes[j].y};
    } else {
      state.erase(writes[j].id);
    }
  }
  std::vector<std::vector<Pt>> now(w.relations.size());
  for (const auto& [id, p] : state) now[w.write_relation].push_back(p);
  Oracle oracle(&now);
  Conn conn(port);
  std::uint64_t failed = 0, nonempty = 0;
  const auto probes = RegionProbes(w, WriteRegion(), seed);
  for (const Query& q : probes) {
    conn.Send(q.text + "\n");
    const std::string resp = conn.ReadLine();
    const auto rows = ParseRows(resp);
    if (!rows.empty()) ++nonempty;
    const Verdict v = IsOk(resp) ? oracle.Check(q, rows) : Verdict{false, resp};
    if (!v.ok) {
      ++failed;
      std::fprintf(stderr, "verify mismatch: %s: %s\n", q.text.c_str(), v.why.c_str());
    }
  }
  std::printf("%s\n", Json({{"probes", static_cast<double>(probes.size())},
                            {"failed", static_cast<double>(failed)},
                            {"nonempty", static_cast<double>(nonempty)}})
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace kb

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: knnbench_load gen|run|verify|serve-flags --flag value ...\n");
    return 2;
  }
  try {
    const kb::Args args = kb::Parse(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "gen") return kb::CmdGen(args);
    if (cmd == "run") return kb::CmdRun(args);
    if (cmd == "verify") return kb::CmdVerify(args);
    if (cmd == "serve-flags") return kb::CmdServeFlags();
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "knnbench_load: %s\n", e.what());
    return 1;
  }
}
