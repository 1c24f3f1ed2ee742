#include "cluster/dbscan.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace pareval::cluster {

namespace {

double dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (std::size_t k = 0; k < a.size() && k < b.size(); ++k) {
    const double d = a[k] - b[k];
    s += d * d;
  }
  return s;
}

std::string_view bits(const std::vector<double>& p) {
  return {reinterpret_cast<const char*>(p.data()),
          p.size() * sizeof(double)};
}

}  // namespace

// DBSCAN runs over distinct points. Points with the same bit pattern have
// the same distance to every point, so they share a neighbourhood; and
// when a point is its own neighbour (no NaN, no infinity cancelling to
// NaN) its copies are its neighbours too, so all of them share core
// status and cluster. Every other point stays a group of its own. Within
// one cluster's expansion the set of points labelled does not depend on
// the order they are reached in, and clusters start in order of their
// first core point, so expanding groups in first-occurrence order gives
// each point the label per-point DBSCAN gives it. Neighbour lists are
// sparse: memory grows with the number of neighbouring group pairs.
std::vector<int> dbscan(const std::vector<std::vector<double>>& points,
                        const DbscanConfig& config) {
  const double eps2 = config.eps * config.eps;

  // Distinct points in first-occurrence order.
  std::vector<int> group_of(points.size());
  std::vector<std::size_t> first;    // representative point of each group
  std::vector<std::size_t> members;  // group sizes
  std::unordered_map<std::string_view, int> by_bits;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool self_neighbour = dist2(points[i], points[i]) <= eps2;
    if (self_neighbour) {
      const auto [it, fresh] = by_bits.try_emplace(
          bits(points[i]), static_cast<int>(first.size()));
      if (!fresh) {
        group_of[i] = it->second;
        members[it->second]++;
        continue;
      }
    }
    group_of[i] = static_cast<int>(first.size());
    first.push_back(i);
    members.push_back(1);
  }

  // Neighbour lists among the groups (CSR) and each group's neighbour
  // count in points. dist2 is symmetric, so each pair of groups is
  // checked once.
  const std::size_t u = first.size();
  std::vector<std::pair<int, int>> edges;  // g <= h
  std::vector<std::size_t> offsets(u + 1, 0);
  std::vector<std::size_t> counts(u, 0);
  for (std::size_t g = 0; g < u; ++g) {
    for (std::size_t h = g; h < u; ++h) {
      if (!(dist2(points[first[g]], points[first[h]]) <= eps2)) continue;
      edges.emplace_back(static_cast<int>(g), static_cast<int>(h));
      offsets[g + 1]++;
      counts[g] += members[h];
      if (h != g) {
        offsets[h + 1]++;
        counts[h] += members[g];
      }
    }
  }
  for (std::size_t g = 0; g < u; ++g) offsets[g + 1] += offsets[g];
  std::vector<int> adjacent(offsets[u]);
  {
    std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
    for (const auto& [g, h] : edges) {
      adjacent[fill[g]++] = h;
      if (h != g) adjacent[fill[h]++] = g;
    }
  }

  // Expansion. A group is labelled when first reached; only unvisited
  // core groups go on the stack, and noise groups are never core.
  const auto core = [&](std::size_t g) {
    return static_cast<int>(counts[g]) >= config.min_pts;
  };
  constexpr int kUnvisited = -2;
  std::vector<int> group_labels(u, kUnvisited);
  std::vector<int> stack;
  int next_cluster = 0;
  for (std::size_t g = 0; g < u; ++g) {
    if (group_labels[g] != kUnvisited) continue;
    if (!core(g)) {
      group_labels[g] = -1;  // noise (may be claimed by a cluster later)
      continue;
    }
    const int cluster = next_cluster++;
    group_labels[g] = cluster;
    stack.assign(1, static_cast<int>(g));
    while (!stack.empty()) {
      const auto h = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      for (std::size_t e = offsets[h]; e < offsets[h + 1]; ++e) {
        const int j = adjacent[e];
        if (group_labels[j] >= 0) continue;
        const bool unvisited = group_labels[j] == kUnvisited;
        group_labels[j] = cluster;  // border points keep it too
        if (unvisited && core(static_cast<std::size_t>(j))) {
          stack.push_back(j);
        }
      }
    }
  }

  std::vector<int> labels(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    labels[i] = group_labels[group_of[i]];
  }
  return labels;
}

int cluster_count(const std::vector<int>& labels) {
  int max_label = -1;
  for (const int l : labels) max_label = std::max(max_label, l);
  return max_label + 1;
}

}  // namespace pareval::cluster
