#include "memx/search/dominance.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "memx/util/assert.hpp"

namespace memx::search {

bool dominates(const Objectives& a, const Objectives& b) noexcept {
  bool strict = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strict = true;
  }
  return strict;
}

namespace {

/// Indices of `points` in lexicographic order, ties by index. If a
/// dominates b then a <= b componentwise with a != b, so a sorts
/// strictly before b: scanning in this order, every dominator of a
/// point has already been seen.
std::vector<std::size_t> lexOrder(std::span<const Objectives> points) {
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (points[a] != points[b]) return points[a] < points[b];
              return a < b;
            });
  return order;
}

}  // namespace

std::vector<std::size_t> nonDominatedFront(
    std::span<const Objectives> points) {
  // Every potential dominator of a candidate is already in `front`, and
  // no accepted point can be dominated by a later one.
  std::vector<std::size_t> front;
  for (const std::size_t i : lexOrder(points)) {
    bool dominated = false;
    for (const std::size_t j : front) {
      if (dominates(points[j], points[i])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(i);
  }
  std::sort(front.begin(), front.end());
  return front;
}

std::vector<std::uint32_t> nonDominatedRanks(
    std::span<const Objectives> points) {
  const std::size_t n = points.size();
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> rank(n, 0);
  // Each front is a list threaded through `older`, newest member first:
  // head[f] is front f's newest member, older[i] the member added just
  // before i. A recent member sits close to the next point in lex
  // order, so it is the likeliest dominator and is tried first.
  std::vector<std::uint32_t> head;
  head.reserve(n);
  std::vector<std::uint32_t> older(n, kNone);
  const auto frontDominates = [&](std::uint32_t f, const Objectives& p) {
    for (std::uint32_t j = head[f]; j != kNone; j = older[j]) {
      if (dominates(points[j], p)) return true;
    }
    return false;
  };
  const std::vector<std::size_t> order = lexOrder(points);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    // Equal vectors have the same dominators, hence the same rank; a
    // copy never needs to join the front (its original answers for it).
    if (k > 0 && points[i] == points[order[k - 1]]) {
      rank[i] = rank[order[k - 1]];
      continue;
    }
    // A point's dominators all precede it, so its rank is the first
    // front with no member dominating it. That predicate is monotone in
    // the front index (a dominator in front f is itself dominated by a
    // member of front f - 1, which then dominates the point too), so a
    // binary search over the fronts finds it.
    std::uint32_t lo = 0;
    auto hi = static_cast<std::uint32_t>(head.size());
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (frontDominates(mid, points[i])) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == head.size()) head.push_back(kNone);
    older[i] = head[lo];
    head[lo] = static_cast<std::uint32_t>(i);
    rank[i] = lo;
  }
  return rank;
}

std::vector<double> crowdingDistances(std::span<const Objectives> points,
                                      std::span<const std::size_t> members) {
  const std::size_t n = members.size();
  std::vector<double> distance(n, 0.0);
  if (n == 0) return distance;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> order(n);
  for (std::size_t k = 0; k < std::tuple_size_v<Objectives>; ++k) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Ties broken by member index: equal inputs sort identically, so
    // the distances (and everything selected from them) are
    // reproducible bit for bit.
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const double va = points[members[a]][k];
                const double vb = points[members[b]][k];
                if (va != vb) return va < vb;
                return members[a] < members[b];
              });
    distance[order.front()] = kInf;
    distance[order.back()] = kInf;
    const double lo = points[members[order.front()]][k];
    const double hi = points[members[order.back()]][k];
    if (hi == lo) continue;  // degenerate objective: no interior spread
    for (std::size_t p = 1; p + 1 < n; ++p) {
      const double below = points[members[order[p - 1]]][k];
      const double above = points[members[order[p + 1]]][k];
      distance[order[p]] += (above - below) / (hi - lo);
    }
  }
  return distance;
}

double hypervolume(std::span<const Objectives> points,
                   const Objectives& ref) {
  // Contributing points must be strictly inside the reference box.
  std::vector<Objectives> inside;
  for (const Objectives& p : points) {
    if (p[0] < ref[0] && p[1] < ref[1] && p[2] < ref[2]) {
      inside.push_back(p);
    }
  }
  if (inside.empty()) return 0.0;
  // Sweep objective 2 ascending; between consecutive sweep positions
  // the dominated region's cross-section is the union of 2-D boxes
  // [x, ref0] x [y, ref1] of the points already passed — a staircase.
  std::sort(inside.begin(), inside.end(),
            [](const Objectives& a, const Objectives& b) {
              return a[2] < b[2];
            });
  struct Step {
    double x;
    double y;
  };
  std::vector<Step> stair;  // x ascending, y strictly descending
  const auto stairArea = [&]() {
    double area = 0.0;
    double prevY = ref[1];
    for (const Step& s : stair) {
      area += (ref[0] - s.x) * (prevY - s.y);
      prevY = s.y;
    }
    return area;
  };
  const auto insert = [&](double x, double y) {
    for (const Step& s : stair) {
      if (s.x <= x && s.y <= y) return;  // 2-D dominated: no new area
    }
    std::erase_if(stair, [&](const Step& s) { return s.x >= x && s.y >= y; });
    const auto pos = std::lower_bound(
        stair.begin(), stair.end(), x,
        [](const Step& s, double v) { return s.x < v; });
    stair.insert(pos, Step{x, y});
  };
  double volume = 0.0;
  double sweepZ = inside.front()[2];
  for (const Objectives& p : inside) {
    if (p[2] > sweepZ) {
      volume += stairArea() * (p[2] - sweepZ);
      sweepZ = p[2];
    }
    insert(p[0], p[1]);
  }
  volume += stairArea() * (ref[2] - sweepZ);
  return volume;
}

}  // namespace memx::search
