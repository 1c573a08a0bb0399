// Brute-force oracle of the KNNQL serving benchmark.
//
// Written apart from the program under test: it includes nothing from
// src/ and answers every query shape by computing all distances. A kNN
// answer is kept as a "sure" set (points strictly closer than the k-th
// distance, plus the tied points when all of them are needed) and a
// "possible" set (the sure points plus every point at exactly the k-th
// distance). A returned row is accepted when it is possible; every row
// built only from sure neighbours must be returned. With no ties at
// the k-th distance this is exact set equality.

#ifndef KNNBENCH_ORACLE_H_
#define KNNBENCH_ORACLE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "model.h"

namespace kb {

using Row = std::array<long long, 3>;

struct RowHash {
  std::size_t operator()(const Row& r) const {
    return std::hash<long long>()(r[0] * 1000003LL ^ r[1] * 998244353LL ^
                                  r[2]);
  }
};

struct Knn {
  std::unordered_set<long long> sure;
  std::unordered_set<long long> possible;
};

inline double Dist2(double ax, double ay, double bx, double by) {
  const double dx = ax - bx;
  const double dy = ay - by;
  return dx * dx + dy * dy;
}

/// k nearest of (x, y) in `pts` by brute force, in two passes: the
/// k-th smallest squared distance, then every point at or below it.
inline Knn BruteKnn(const std::vector<Pt>& pts, double x, double y,
                    std::size_t k) {
  Knn out;
  if (pts.empty() || k == 0) return out;
  k = std::min(k, pts.size());
  std::priority_queue<double> heap;  // max-heap of the k smallest
  for (const Pt& p : pts) {
    const double d = Dist2(x, y, p.x, p.y);
    if (heap.size() < k) {
      heap.push(d);
    } else if (d < heap.top()) {
      heap.pop();
      heap.push(d);
    }
  }
  const double dk = heap.top();
  std::vector<long long> ties;
  for (const Pt& p : pts) {
    const double d = Dist2(x, y, p.x, p.y);
    if (d < dk) {
      out.sure.insert(p.id);
      out.possible.insert(p.id);
    } else if (d == dk) {
      ties.push_back(p.id);
      out.possible.insert(p.id);
    }
  }
  if (out.sure.size() + ties.size() == k) {
    for (long long id : ties) out.sure.insert(id);
  }
  return out;
}

/// The relation's points by id (for looking up a neighbour's
/// coordinates).
inline std::unordered_map<long long, Pt> ById(const std::vector<Pt>& pts) {
  std::unordered_map<long long, Pt> out;
  out.reserve(pts.size() * 2);
  for (const Pt& p : pts) out[p.id] = p;
  return out;
}

/// Runs fn(i) for i in [0, n) on `threads` threads, the calling thread
/// being one of them.
inline void ParallelFor(std::size_t n, int threads,
                        const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (auto& th : pool) th.join();
}

/// Per-point kNN of one (outer relation, inner relation) pair: the
/// nearest few inner points of every outer point that a check needs,
/// from which any smaller k is read off. Filled by Prepare (in
/// parallel), read by the checks.
class JoinTruth {
 public:
  JoinTruth(const std::vector<Pt>* outer, const std::vector<Pt>* inner)
      : inner_(inner), by_id_(ById(*outer)) {}

  void Need(long long outer_id, std::size_t k) {
    std::size_t& want = wanted_[outer_id];
    want = std::max(want, k);
  }

  void Prepare(int threads) {
    std::vector<std::pair<long long, std::size_t>> todo;
    for (const auto& [id, k] : wanted_) {
      const auto it = lists_.find(id);
      if (it == lists_.end() || it->second.size() < Len(k)) todo.push_back({id, k});
    }
    std::vector<std::vector<std::pair<double, long long>>> results(todo.size());
    ParallelFor(todo.size(), threads, [&](std::size_t i) {
      const Pt& p = by_id_.at(todo[i].first);
      results[i] = Nearest(p.x, p.y, Len(todo[i].second));
    });
    for (std::size_t i = 0; i < todo.size(); ++i) {
      lists_[todo[i].first] = std::move(results[i]);
    }
    wanted_.clear();
  }

  /// kNN of outer point `outer_id`; throws std::out_of_range for an id
  /// the outer relation does not hold.
  Knn Get(long long outer_id, std::size_t k) const {
    const auto& list = lists_.at(outer_id);
    k = std::min(k, list.size());
    Knn out;
    if (k == 0) return out;
    const double dk = list[k - 1].first;
    if (list.size() < inner_->size() && list.back().first == dk) {
      // Ties may continue past the stored list: recount them all.
      const Pt& p = by_id_.at(outer_id);
      return BruteKnn(*inner_, p.x, p.y, k);
    }
    std::size_t ties = 0;
    for (const auto& [d, id] : list) {
      if (d < dk) out.sure.insert(id);
      if (d <= dk) out.possible.insert(id);
      if (d == dk) ++ties;
    }
    if (out.sure.size() + ties == k) out.sure = out.possible;
    return out;
  }

 private:
  static std::size_t Len(std::size_t k) { return k + 4; }

  std::vector<std::pair<double, long long>> Nearest(double x, double y,
                                                    std::size_t len) const {
    std::priority_queue<std::pair<double, long long>> heap;
    for (const Pt& p : *inner_) {
      const double d = Dist2(x, y, p.x, p.y);
      if (heap.size() < len) {
        heap.push({d, p.id});
      } else if (d < heap.top().first) {
        heap.pop();
        heap.push({d, p.id});
      }
    }
    std::vector<std::pair<double, long long>> out(heap.size());
    for (std::size_t i = heap.size(); i > 0; --i) {
      out[i - 1] = heap.top();
      heap.pop();
    }
    return out;
  }

  const std::vector<Pt>* inner_;
  std::unordered_map<long long, Pt> by_id_;
  std::unordered_map<long long, std::size_t> wanted_;
  std::unordered_map<long long, std::vector<std::pair<double, long long>>> lists_;
};

/// Verdict of one checked answer.
struct Verdict {
  bool ok = true;
  std::string why;
};

inline Verdict Compare(const std::vector<Row>& got,
                       const std::vector<Row>& sure,
                       const std::function<bool(const Row&)>& possible) {
  std::unordered_set<Row, RowHash> seen;
  for (const Row& r : got) {
    if (!seen.insert(r).second) return {false, "duplicate row"};
    if (!possible(r)) {
      return {false, "unexpected row " + std::to_string(r[0]) + "," +
                         std::to_string(r[1]) + "," + std::to_string(r[2])};
    }
  }
  for (const Row& r : sure) {
    if (!seen.count(r)) {
      return {false, "missing row " + std::to_string(r[0]) + "," +
                         std::to_string(r[1]) + "," + std::to_string(r[2])};
    }
  }
  return {};
}

/// Answers the query shapes over one workload's relations.
class Oracle {
 public:
  explicit Oracle(const std::vector<std::vector<Pt>>* relations)
      : rel_(relations) {}

  /// Declares what `q` will need, so Prepare can compute the join
  /// truths for a whole batch of checks in parallel.
  void Plan(const Query& q) {
    switch (q.shape) {
      case Shape::kTwoSelects:
        break;
      case Shape::kSelectInner:
      case Shape::kRangeInner:
        for (const Pt& o : (*rel_)[q.r1]) Join(q.r1, q.r2).Need(o.id, q.k1);
        break;
      case Shape::kSelectOuter: {
        const Knn sel = BruteKnn((*rel_)[q.r1], q.fx, q.fy, q.k2);
        for (long long id : sel.possible) Join(q.r1, q.r2).Need(id, q.k1);
        break;
      }
      case Shape::kChained:
        for (const Pt& a : (*rel_)[q.r1]) Join(q.r1, q.r2).Need(a.id, q.k1);
        pending_chained_.push_back(q);
        break;
      case Shape::kUnchained:
        for (const Pt& a : (*rel_)[q.r1]) Join(q.r1, q.r2).Need(a.id, q.k1);
        for (const Pt& c : (*rel_)[q.r3]) Join(q.r3, q.r2).Need(c.id, q.k2);
        break;
    }
  }

  void Prepare(int threads) {
    for (auto& [key, truth] : joins_) truth->Prepare(threads);
    // Chained joins need the B -> C neighbourhoods of every b the first
    // join can reach, known only after the first join's truth exists.
    for (const Query& q : pending_chained_) {
      const JoinTruth& ab = *joins_.at(q.r1 * 16 + q.r2);
      for (const Pt& a : (*rel_)[q.r1]) {
        for (long long b : ab.Get(a.id, q.k1).possible) {
          Join(q.r2, q.r3).Need(b, q.k2);
        }
      }
    }
    pending_chained_.clear();
    for (auto& [key, truth] : joins_) truth->Prepare(threads);
  }

  Verdict Check(const Query& q, const std::vector<Row>& got) {
    const auto& rels = *rel_;
    std::vector<Row> sure;
    switch (q.shape) {
      case Shape::kTwoSelects: {
        const Knn s1 = BruteKnn(rels[q.r1], q.fx, q.fy, q.k1);
        const Knn s2 = BruteKnn(rels[q.r1], q.gx, q.gy, q.k2);
        for (long long id : s1.sure) {
          if (s2.sure.count(id)) sure.push_back({id, 0, 0});
        }
        return Compare(got, sure, [&](const Row& r) {
          return r[1] == 0 && r[2] == 0 && s1.possible.count(r[0]) &&
                 s2.possible.count(r[0]);
        });
      }
      case Shape::kSelectInner: {
        const Knn sel = BruteKnn(rels[q.r2], q.fx, q.fy, q.k2);
        const JoinTruth& j = *joins_.at(q.r1 * 16 + q.r2);
        for (const Pt& o : rels[q.r1]) {
          for (long long i : j.Get(o.id, q.k1).sure) {
            if (sel.sure.count(i)) sure.push_back({o.id, i, 0});
          }
        }
        return Compare(got, sure, [&](const Row& r) {
          return r[2] == 0 && sel.possible.count(r[1]) &&
                 Possible(j, r[0], q.k1, r[1]);
        });
      }
      case Shape::kSelectOuter: {
        const Knn sel = BruteKnn(rels[q.r1], q.fx, q.fy, q.k2);
        const JoinTruth& j = *joins_.at(q.r1 * 16 + q.r2);
        for (long long o : sel.sure) {
          for (long long i : j.Get(o, q.k1).sure) sure.push_back({o, i, 0});
        }
        return Compare(got, sure, [&](const Row& r) {
          return r[2] == 0 && sel.possible.count(r[0]) &&
                 Possible(j, r[0], q.k1, r[1]);
        });
      }
      case Shape::kRangeInner: {
        const JoinTruth& j = *joins_.at(q.r1 * 16 + q.r2);
        std::unordered_map<long long, Pt> inner = ById(rels[q.r2]);
        auto in_range = [&](long long id) {
          const auto it = inner.find(id);
          return it != inner.end() && it->second.x >= q.x1 &&
                 it->second.x <= q.x2 && it->second.y >= q.y1 &&
                 it->second.y <= q.y2;
        };
        for (const Pt& o : rels[q.r1]) {
          for (long long i : j.Get(o.id, q.k1).sure) {
            if (in_range(i)) sure.push_back({o.id, i, 0});
          }
        }
        return Compare(got, sure, [&](const Row& r) {
          return r[2] == 0 && in_range(r[1]) && Possible(j, r[0], q.k1, r[1]);
        });
      }
      case Shape::kChained: {
        const JoinTruth& ab = *joins_.at(q.r1 * 16 + q.r2);
        const JoinTruth& bc = *joins_.at(q.r2 * 16 + q.r3);
        for (const Pt& a : rels[q.r1]) {
          for (long long b : ab.Get(a.id, q.k1).sure) {
            for (long long c : bc.Get(b, q.k2).sure) sure.push_back({a.id, b, c});
          }
        }
        return Compare(got, sure, [&](const Row& r) {
          return Possible(ab, r[0], q.k1, r[1]) && Possible(bc, r[1], q.k2, r[2]);
        });
      }
      case Shape::kUnchained: {
        const JoinTruth& ab = *joins_.at(q.r1 * 16 + q.r2);
        const JoinTruth& cb = *joins_.at(q.r3 * 16 + q.r2);
        std::unordered_map<long long, std::vector<long long>> a_by_b;
        for (const Pt& a : rels[q.r1]) {
          for (long long b : ab.Get(a.id, q.k1).sure) a_by_b[b].push_back(a.id);
        }
        for (const Pt& c : rels[q.r3]) {
          for (long long b : cb.Get(c.id, q.k2).sure) {
            const auto it = a_by_b.find(b);
            if (it == a_by_b.end()) continue;
            for (long long a : it->second) sure.push_back({a, b, c.id});
          }
        }
        return Compare(got, sure, [&](const Row& r) {
          return Possible(ab, r[0], q.k1, r[1]) && Possible(cb, r[2], q.k2, r[1]);
        });
      }
    }
    return {false, "unknown shape"};
  }

 private:
  static bool Possible(const JoinTruth& j, long long outer, std::size_t k,
                       long long inner) {
    try {
      return j.Get(outer, k).possible.count(inner) > 0;
    } catch (const std::out_of_range&) {
      return false;  // an outer id the relation does not hold
    }
  }

  JoinTruth& Join(int outer, int inner) {
    auto& slot = joins_[outer * 16 + inner];
    if (!slot) {
      slot = std::make_unique<JoinTruth>(&(*rel_)[outer], &(*rel_)[inner]);
    }
    return *slot;
  }

  const std::vector<std::vector<Pt>>* rel_;
  std::unordered_map<int, std::unique_ptr<JoinTruth>> joins_;
  std::vector<Query> pending_chained_;
};

}  // namespace kb

#endif  // KNNBENCH_ORACLE_H_
