// Seeded workload model of the KNNQL serving benchmark: relation
// generators, statement streams and the write schedule.
//
// Everything here is a pure function of (workload, seed, index), so the
// load client, the brute-force oracle and the in-process tracer all see
// the same inputs without exchanging files other than the relation
// CSVs. Nothing in this header includes or calls the program under
// test: the program receives only the generated CSVs and statements.

#ifndef KNNBENCH_MODEL_H_
#define KNNBENCH_MODEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <unistd.h>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace kb {

// ------------------------------------------------------------ random

inline std::uint64_t SplitMix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** seeded from (seed, stream) through splitmix64. The
/// distributions below are written out by hand so the generated inputs
/// do not depend on the standard library's distribution code.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t x = seed * 0x2545f4914f6cdd1dULL ^ (stream + 0x1234567ULL);
    for (auto& word : s_) word = SplitMix(x);
  }
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Uniform() * static_cast<double>(n));
  }
  /// Standard normal (Box-Muller).
  double Normal() {
    const double u1 = 1.0 - Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }
  /// Integer log-uniform in [lo, hi].
  std::size_t LogUniform(std::size_t lo, std::size_t hi) {
    const double v = std::exp(std::log(static_cast<double>(lo)) +
                              Uniform() * (std::log(hi + 1.0) -
                                           std::log(static_cast<double>(lo))));
    return std::min<std::size_t>(hi, static_cast<std::size_t>(v));
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Nearest-rank percentile (0 for no samples).
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// ------------------------------------------------------------- points

struct Pt {
  long long id = 0;
  double x = 0.0;
  double y = 0.0;
};

/// Coordinates travel as "%.3f" text (CSV and KNNQL literals); every
/// consumer uses the value that text parses back to, which is exactly
/// what the server parses.
inline double Round3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return std::strtod(buf, nullptr);
}

inline std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

constexpr double kWidth = 30000.0;   // metres, like a city extent
constexpr double kHeight = 24000.0;

inline double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// The geography (street graph, districts, clusters) is the same on
/// every seed; the seed draws the points and the statements from it, so
/// two seeds are two samples of one workload.
constexpr std::uint64_t kLayoutSeed = 20120801;

/// Berlin-like density: a street graph between hubs (most points lie
/// along streets), dense hub districts, and a thin uniform background.
class CityModel {
 public:
  CityModel() {
    Rng rng(kLayoutSeed, 7);
    const int hubs = 48;
    for (int h = 0; h < hubs; ++h) {
      Hub hub;
      if (h < hubs * 3 / 5) {
        hub.x = Clamp(kWidth / 2 + 4500 * rng.Normal(), 500, kWidth - 500);
        hub.y = Clamp(kHeight / 2 + 3600 * rng.Normal(), 500, kHeight - 500);
      } else {
        hub.x = rng.Uniform(500, kWidth - 500);
        hub.y = rng.Uniform(500, kHeight - 500);
      }
      hub.sigma = rng.Uniform(250, 1100);
      hub.weight = 1.0 / (1.0 + h * 0.15);
      hubs_.push_back(hub);
    }
    // Streets: every hub to its three nearest hubs.
    for (int a = 0; a < hubs; ++a) {
      std::vector<std::pair<double, int>> near;
      for (int b = 0; b < hubs; ++b) {
        if (b == a) continue;
        const double dx = hubs_[a].x - hubs_[b].x;
        const double dy = hubs_[a].y - hubs_[b].y;
        near.push_back({dx * dx + dy * dy, b});
      }
      std::sort(near.begin(), near.end());
      for (int j = 0; j < 3; ++j) {
        streets_.push_back({a, near[j].second});
        street_cdf_.push_back(std::sqrt(near[j].first) +
                              (street_cdf_.empty() ? 0 : street_cdf_.back()));
      }
    }
    for (const Hub& hub : hubs_) {
      hub_cdf_.push_back(hub.weight + (hub_cdf_.empty() ? 0 : hub_cdf_.back()));
    }
  }

  Pt Sample(Rng& rng) const {
    const double kind = rng.Uniform();
    double x, y;
    if (kind < 0.6) {
      const auto& [a, b] = streets_[Pick(street_cdf_, rng)];
      const double t = rng.Uniform();
      x = hubs_[a].x + t * (hubs_[b].x - hubs_[a].x) + 35 * rng.Normal();
      y = hubs_[a].y + t * (hubs_[b].y - hubs_[a].y) + 35 * rng.Normal();
    } else if (kind < 0.9) {
      const Hub& hub = hubs_[Pick(hub_cdf_, rng)];
      x = hub.x + hub.sigma * rng.Normal();
      y = hub.y + hub.sigma * rng.Normal();
    } else {
      x = rng.Uniform(0, kWidth);
      y = rng.Uniform(0, kHeight);
    }
    return Pt{0, Round3(Clamp(x, 0, kWidth)), Round3(Clamp(y, 0, kHeight))};
  }

 private:
  struct Hub {
    double x, y, sigma, weight;
  };
  static std::size_t Pick(const std::vector<double>& cdf, Rng& rng) {
    const double r = rng.Uniform() * cdf.back();
    return std::min<std::size_t>(
        cdf.size() - 1,
        std::upper_bound(cdf.begin(), cdf.end(), r) - cdf.begin());
  }
  std::vector<Hub> hubs_;
  std::vector<std::pair<int, int>> streets_;
  std::vector<double> street_cdf_;
  std::vector<double> hub_cdf_;
};

enum class Dist { kBerlin, kUniform, kClustered };

inline std::vector<Pt> Generate(Dist dist, std::size_t n, std::uint64_t seed,
                                std::uint64_t stream) {
  std::vector<Pt> out;
  out.reserve(n);
  Rng rng(seed, stream);
  if (dist == Dist::kBerlin) {
    const CityModel city;
    for (std::size_t i = 0; i < n; ++i) out.push_back(city.Sample(rng));
  } else if (dist == Dist::kUniform) {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(Pt{0, Round3(rng.Uniform(0, kWidth)),
                       Round3(rng.Uniform(0, kHeight))});
    }
  } else {
    struct Cluster {
      double x, y, sigma, cdf;
    };
    std::vector<Cluster> clusters;
    double total = 0;
    Rng layout(kLayoutSeed, 8);
    for (int c = 0; c < 16; ++c) {
      total += layout.Uniform(0.2, 1.0);
      clusters.push_back({layout.Uniform(1500, kWidth - 1500),
                          layout.Uniform(1500, kHeight - 1500),
                          layout.Uniform(150, 900), total});
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double r = rng.Uniform() * total;
      std::size_t c = 0;
      while (c + 1 < clusters.size() && clusters[c].cdf < r) ++c;
      out.push_back(Pt{0,
                       Round3(Clamp(clusters[c].x + clusters[c].sigma * rng.Normal(),
                                    0, kWidth)),
                       Round3(Clamp(clusters[c].y + clusters[c].sigma * rng.Normal(),
                                    0, kHeight))});
    }
  }
  for (std::size_t i = 0; i < n; ++i) out[i].id = static_cast<long long>(i);
  return out;
}

inline void WriteCsv(const std::vector<Pt>& points, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("id,x,y\n", f);
  for (const Pt& p : points) {
    std::fprintf(f, "%lld,%.3f,%.3f\n", p.id, p.x, p.y);
  }
  // On disk before the server starts: write-back of the inputs would
  // otherwise overlap the timed set-up starts.
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0 || std::fclose(f) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

inline std::vector<Pt> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Pt> out;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    char* end = nullptr;
    Pt p;
    p.id = std::strtoll(line.c_str(), &end, 10);
    p.x = std::strtod(end + 1, &end);
    p.y = std::strtod(end + 1, &end);
    out.push_back(p);
  }
  return out;
}

// ---------------------------------------------------------- workloads

enum class Shape {
  kTwoSelects,
  kSelectInner,
  kSelectOuter,
  kRangeInner,
  kChained,
  kUnchained,
};
constexpr int kNumShapes = 6;

inline const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kTwoSelects: return "two_selects";
    case Shape::kSelectInner: return "select_inner";
    case Shape::kSelectOuter: return "select_outer";
    case Shape::kRangeInner: return "range_inner";
    case Shape::kChained: return "chained";
    case Shape::kUnchained: return "unchained";
  }
  return "?";
}

struct RelationSpec {
  const char* name;
  Dist dist;
  std::size_t n;
  std::uint64_t stream;
};

/// One query statement and everything the oracle needs to answer it.
/// Relation fields hold indexes into the workload's relation list.
struct Query {
  Shape shape = Shape::kTwoSelects;
  int r1 = 0, r2 = 0, r3 = 0;  // outer/inner, or A/B/C
  std::size_t k1 = 0, k2 = 0;   // join k / select k, or k_ab / k_bc|k_cb
  double fx = 0, fy = 0, gx = 0, gy = 0;  // focal points
  double x1 = 0, y1 = 0, x2 = 0, y2 = 0;  // range
  std::string text;
};

struct Write {
  bool insert = true;
  double x = 0, y = 0;  // insert
  long long id = 0;     // delete target, or the id the insert receives
};

// The serving configuration, the same on every workload: the server's
// worker threads and neighborhood-cache budget, its flush policy, and
// the client's warm-up before the timed window. The client and the
// tracer never run more threads than kThreads. Read percentiles and
// qps are medians over kSliceSeconds slices of the window, write
// percentiles medians over kWriteGroups groups of writes.
constexpr int kThreads = 4;
constexpr int kCacheMb = 64;
constexpr int kWalSyncIntervalOps = 256;
constexpr int kWarmupMs = 1000;
constexpr double kSliceSeconds = 1.0;
constexpr std::size_t kWriteGroups = 8;

struct Workload {
  std::string name;
  std::vector<RelationSpec> relations;
  int connections = 0;       // closed-loop query connections
  int depth = 1;             // statements each keeps in flight
  int write_relation = 0;    // index of the relation the writer updates
  std::size_t post_writes = 0;  // closed-loop writes after the reads
  const char* write_name() const { return relations[write_relation].name; }
};

// Sizes are chosen so every timed quantity is far above scheduler noise
// (README "Workloads"). Every workload runs a durable server and one
// writer connection, which runs closed-loop after the read window, on
// a side relation no query reads.
inline Workload GetWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "two_selects") {
    w.relations = {{"city", Dist::kBerlin, 1000000, 11},
                   {"pings", Dist::kBerlin, 100000, 41}};
    w.connections = 3;
    w.depth = 8;
    w.write_relation = 1;
    w.post_writes = 400;
  } else if (name == "join_mix") {
    w.relations = {{"bz", Dist::kBerlin, 250000, 21},
                   {"un", Dist::kUniform, 10000, 22},
                   {"cl", Dist::kClustered, 1000, 23},
                   {"pings", Dist::kBerlin, 500000, 41}};
    w.connections = 2;
    w.write_relation = 3;
    w.post_writes = 200;
  } else {
    throw std::runtime_error("unknown workload: " + name);
  }
  return w;
}

inline std::string TwoSelectsText(const char* rel, const Query& q) {
  return "SELECT KNN(" + std::string(rel) + ", " + std::to_string(q.k1) +
         ", AT(" + Num(q.fx) + ", " + Num(q.fy) + ")) INTERSECT KNN(" + rel +
         ", " + std::to_string(q.k2) + ", AT(" + Num(q.gx) + ", " +
         Num(q.gy) + "));";
}

inline Query TwoSelects(const CityModel& city, Rng& rng, std::size_t k_hi) {
  Query q;
  q.shape = Shape::kTwoSelects;
  const Pt p = city.Sample(rng);
  const double sep = rng.Uniform(0, 250);
  const double angle = rng.Uniform(0, 6.283185307179586);
  q.fx = p.x;
  q.fy = p.y;
  q.gx = Round3(Clamp(p.x + sep * std::cos(angle), 0, kWidth));
  q.gy = Round3(Clamp(p.y + sep * std::sin(angle), 0, kHeight));
  q.k1 = rng.LogUniform(4, k_hi);
  q.k2 = rng.LogUniform(4, k_hi);
  return q;
}

/// The writer's region, in the side relation that no query reads.
struct Region {
  double x1, y1, x2, y2;
  bool Contains(double x, double y) const {
    return x >= x1 && x <= x2 && y >= y1 && y <= y2;
  }
};

/// The write region: the same 800 m square on every seed (east of the
/// centre, where every seed's city still has streets and districts).
inline Region WriteRegion() { return {26000, 11600, 26800, 12400}; }

/// Deterministic statement streams: statement i of a workload depends
/// only on (seed, i).
class StatementStream {
 public:
  StatementStream(const Workload& w, std::uint64_t seed)
      : w_(w), seed_(seed) {}

  Query At(std::uint64_t i) const {
    Rng rng(seed_, 1000000 + i);
    if (w_.name == "two_selects") {
      Query q = TwoSelects(city_, rng, 256);
      q.text = TwoSelectsText("city", q);
      return q;
    }
    return JoinMix(rng);
  }

  /// A query of one shape drawn the way the join_mix stream draws it
  /// (the tracer uses this to time every shape).
  Query OfShape(Shape shape, std::uint64_t i) const {
    Rng rng(seed_, 5000000 + i * kNumShapes + static_cast<int>(shape));
    if (shape == Shape::kTwoSelects) {
      Query q = TwoSelects(city_, rng, 256);
      q.r1 = 0;
      q.text = TwoSelectsText(w_.relations[0].name, q);
      return q;
    }
    return JoinShape(shape, rng);
  }

 private:
  // join_mix relations: 0 = bz (Berlin), 1 = un (uniform), 2 = cl
  // (clustered).
  Query JoinMix(Rng& rng) const {
    const double r = rng.Uniform();
    const Shape shape = r < 0.30   ? Shape::kSelectInner
                        : r < 0.55 ? Shape::kSelectOuter
                        : r < 0.80 ? Shape::kRangeInner
                        : r < 0.90 ? Shape::kChained
                                   : Shape::kUnchained;
    return JoinShape(shape, rng);
  }

  Query JoinShape(Shape shape, Rng& rng) const {
    static const std::size_t kJoinK[] = {2, 4, 8};
    Query q;
    q.shape = shape;
    const Pt f = city_.Sample(rng);
    q.fx = f.x;
    q.fy = f.y;
    switch (shape) {
      case Shape::kSelectInner:
        q.r1 = 1, q.r2 = 0;
        q.k1 = kJoinK[rng.Below(3)];
        q.k2 = rng.LogUniform(8, 256);
        q.text = "JOIN KNN(un, bz, " + std::to_string(q.k1) +
                 ") WHERE INNER IN KNN(bz, " + std::to_string(q.k2) +
                 ", AT(" + Num(q.fx) + ", " + Num(q.fy) + "));";
        break;
      case Shape::kSelectOuter:
        q.r1 = 0, q.r2 = 1;
        q.k1 = kJoinK[rng.Below(3)];
        q.k2 = rng.LogUniform(8, 256);
        q.text = "JOIN KNN(bz, un, " + std::to_string(q.k1) +
                 ") WHERE OUTER IN KNN(bz, " + std::to_string(q.k2) +
                 ", AT(" + Num(q.fx) + ", " + Num(q.fy) + "));";
        break;
      case Shape::kRangeInner: {
        q.r1 = 1, q.r2 = 0;
        q.k1 = kJoinK[rng.Below(3)];
        const double w = rng.Uniform(200, 1500), h = rng.Uniform(200, 1500);
        q.x1 = Round3(Clamp(f.x - w / 2, 0, kWidth));
        q.y1 = Round3(Clamp(f.y - h / 2, 0, kHeight));
        q.x2 = Round3(Clamp(f.x + w / 2, 0, kWidth));
        q.y2 = Round3(Clamp(f.y + h / 2, 0, kHeight));
        q.text = "JOIN KNN(un, bz, " + std::to_string(q.k1) +
                 ") WHERE INNER IN RANGE(" + Num(q.x1) + ", " + Num(q.y1) +
                 ", " + Num(q.x2) + ", " + Num(q.y2) + ");";
        break;
      }
      case Shape::kChained:
        q.r1 = 2, q.r2 = 0, q.r3 = 1;
        q.k1 = 1 + rng.Below(3);
        q.k2 = 1 + rng.Below(3);
        q.text = "JOIN KNN(cl, bz, " + std::to_string(q.k1) +
                 ") THEN KNN(bz, un, " + std::to_string(q.k2) + ");";
        break;
      case Shape::kUnchained:
        q.r1 = 2, q.r2 = 0, q.r3 = 1;
        q.k1 = 1 + rng.Below(3);
        q.k2 = 1 + rng.Below(3);
        q.text = "JOIN KNN(cl, bz, " + std::to_string(q.k1) +
                 ") INTERSECT KNN(un, bz, " + std::to_string(q.k2) + ");";
        break;
      case Shape::kTwoSelects:
        break;
    }
    return q;
  }

  Workload w_;
  std::uint64_t seed_;
  CityModel city_;
};

/// The write schedule: alternating single-row INSERT (a fresh
/// point in the region) and DELETE (a live point of the region, from
/// the CSV or inserted earlier). Inserted ids are predicted from the
/// relation's id sequence (max id + 1 and up, never reused).
inline std::vector<Write> WriteSchedule(const std::vector<Pt>& initial,
                                        const Region& region,
                                        std::size_t count,
                                        std::uint64_t seed) {
  std::vector<long long> live;
  long long next_id = 0;
  for (const Pt& p : initial) {
    if (region.Contains(p.x, p.y)) live.push_back(p.id);
    next_id = std::max(next_id, p.id + 1);
  }
  Rng rng(seed, 77);
  std::vector<Write> out;
  for (std::size_t j = 0; j < count; ++j) {
    Write w;
    if (j % 2 == 0 || live.empty()) {
      w.insert = true;
      w.x = Round3(rng.Uniform(region.x1, region.x2));
      w.y = Round3(rng.Uniform(region.y1, region.y2));
      w.id = next_id++;
      live.push_back(w.id);
    } else {
      w.insert = false;
      const std::size_t pick = rng.Below(live.size());
      w.id = live[pick];
      live[pick] = live.back();
      live.pop_back();
    }
    out.push_back(w);
  }
  return out;
}

inline std::string WriteText(const char* rel, const Write& w) {
  if (w.insert) {
    return "INSERT INTO " + std::string(rel) + " VALUES (" + Num(w.x) + ", " +
           Num(w.y) + ");";
  }
  return "DELETE FROM " + std::string(rel) + " WHERE ID = " +
         std::to_string(w.id) + ";";
}

/// Final-state probes of the write region: plain kNN (both predicates equal)
/// at fixed points of the write region.
inline std::vector<Query> RegionProbes(const Workload& w, const Region& region,
                                       std::uint64_t seed) {
  Rng rng(seed, 88);
  std::vector<Query> out;
  for (int i = 0; i < 16; ++i) {
    Query q;
    q.shape = Shape::kTwoSelects;
    q.fx = q.gx = Round3(rng.Uniform(region.x1, region.x2));
    q.fy = q.gy = Round3(rng.Uniform(region.y1, region.y2));
    q.k1 = q.k2 = 48;
    q.r1 = w.write_relation;
    q.text = TwoSelectsText(w.write_name(), q);
    out.push_back(q);
  }
  return out;
}

inline std::string CsvPath(const std::string& dir, const RelationSpec& r) {
  return dir + "/" + r.name + ".csv";
}

}  // namespace kb

#endif  // KNNBENCH_MODEL_H_
