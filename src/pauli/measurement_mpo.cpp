#include "pauli/measurement_mpo.hpp"

#include <algorithm>
#include <tuple>

#include "obs/trace.hpp"

namespace q2::pauli {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;
using Edge = MeasurementMpo::Edge;

// A term's letters from some site on, as a node of a trie keyed from the
// right: `letter` on that site followed by the string `next` from the site
// after. Node 0 is the empty string. Nodes are unique per site, so two
// terms open at one site have the same remaining letters exactly when they
// have the same node.
struct SuffixNode {
  P letter = P::I;
  std::uint32_t next = 0;
};

// A term still open at the current site: the state carrying its left part
// (or the vacuum), the coefficient it has still to apply, and its letters
// from this site on.
struct Open {
  std::uint32_t left = MeasurementMpo::kVacuum;
  std::uint32_t suffix = 0;
  cplx alpha{};
};

// A bipartite graph as adjacency lists of its left vertices:
// adj[begin[u], begin[u + 1]).
struct Bipartite {
  std::size_t n_left = 0, n_right = 0;
  std::vector<std::uint32_t> begin{0}, adj;
};

// Hopcroft–Karp maximum matching: phases of a BFS layering from the free
// left vertices, then disjoint augmenting paths along the layers.
class Matching {
 public:
  explicit Matching(const Bipartite& g)
      : g_(g),
        of_left_(g.n_left, kNone),
        of_right_(g.n_right, kNone),
        dist_(g.n_left),
        cursor_(g.n_left) {
    while (layer()) {
      std::copy(g_.begin.begin(), g_.begin.end() - 1, cursor_.begin());
      for (std::uint32_t u = 0; u < g_.n_left; ++u)
        if (of_left_[u] == kNone) augment(u);
    }
  }
  std::uint32_t of_right(std::uint32_t v) const { return of_right_[v]; }

 private:
  // Distances from the free left vertices along alternating paths; true if
  // a free right vertex is reachable.
  bool layer() {
    std::vector<std::uint32_t> queue;
    for (std::uint32_t u = 0; u < g_.n_left; ++u) {
      dist_[u] = of_left_[u] == kNone ? 0 : kNone;
      if (dist_[u] == 0) queue.push_back(u);
    }
    bool free_right = false;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const std::uint32_t u = queue[h];
      for (std::uint32_t i = g_.begin[u]; i < g_.begin[u + 1]; ++i) {
        const std::uint32_t w = of_right_[g_.adj[i]];
        if (w == kNone) {
          free_right = true;
        } else if (dist_[w] == kNone) {
          dist_[w] = dist_[u] + 1;
          queue.push_back(w);
        }
      }
    }
    return free_right;
  }

  // Depth is bounded by the number of layers; each edge is tried once per
  // phase.
  bool augment(std::uint32_t u) {
    for (; cursor_[u] < g_.begin[u + 1]; ++cursor_[u]) {
      const std::uint32_t v = g_.adj[cursor_[u]];
      const std::uint32_t w = of_right_[v];
      if (w == kNone || (dist_[w] == dist_[u] + 1 && augment(w))) {
        of_left_[u] = v;
        of_right_[v] = u;
        return true;
      }
    }
    dist_[u] = kNone;
    return false;
  }

  const Bipartite& g_;
  std::vector<std::uint32_t> of_left_, of_right_, dist_, cursor_;
};

// König's theorem: with Z the vertices reachable from the free left
// vertices along alternating paths, (left \ Z) ∪ (right ∩ Z) is a minimum
// vertex cover.
void minimum_vertex_cover(const Bipartite& g, std::vector<char>& left,
                          std::vector<char>& right) {
  const Matching m(g);
  std::vector<char> reached(g.n_left, 1);
  for (std::uint32_t v = 0; v < g.n_right; ++v)
    if (m.of_right(v) != kNone) reached[m.of_right(v)] = 0;
  std::vector<std::uint32_t> queue;
  for (std::uint32_t u = 0; u < g.n_left; ++u)
    if (reached[u]) queue.push_back(u);
  right.assign(g.n_right, 0);
  for (std::size_t h = 0; h < queue.size(); ++h) {
    const std::uint32_t u = queue[h];
    for (std::uint32_t i = g.begin[u]; i < g.begin[u + 1]; ++i) {
      const std::uint32_t v = g.adj[i];
      if (right[v]) continue;
      right[v] = 1;
      const std::uint32_t w = m.of_right(v);
      if (w != kNone && !reached[w]) {
        reached[w] = 1;
        queue.push_back(w);
      }
    }
  }
  left.resize(g.n_left);
  for (std::uint32_t u = 0; u < g.n_left; ++u) left[u] = !reached[u];
}

}  // namespace

std::size_t MeasurementMpo::max_bond() const {
  std::size_t b = 0;
  for (std::size_t d : bond) b = std::max(b, d);
  return b;
}

MeasurementMpo build_measurement_mpo(
    const std::vector<std::pair<PauliString, cplx>>& terms,
    const std::vector<int>& site_of) {
  OBS_SPAN("pauli/build_mpo");
  // Terms, states and edges are numbered in 32 bits.
  require(terms.size() < kNone, "build_measurement_mpo: too many terms");
  const std::size_t n = site_of.size();
  require(n >= 1, "build_measurement_mpo: no sites");
  MeasurementMpo mpo;
  mpo.site_of = site_of;
  mpo.bond.assign(n - 1, 0);
  mpo.first_edge.assign(n + 1, 0);

  // Each term's support and site letters; an identity term is I on site 0.
  std::vector<std::size_t> lo(terms.size(), 0), hi(terms.size(), 0),
      offset(terms.size() + 1, 0);
  std::vector<P> letters;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const PauliString& term = terms[t].first;
    require(term.n_qubits() == n,
            "build_measurement_mpo: qubit count mismatch");
    if (term.is_identity()) {
      letters.push_back(P::I);
    } else {
      const PauliString p = term.permuted(site_of);
      std::tie(lo[t], hi[t]) = p.support_range();
      for (std::size_t s = lo[t]; s <= hi[t]; ++s) letters.push_back(p.get(s));
    }
    offset[t + 1] = letters.size();
  }

  // The suffix trie, site by site from the right: a term's node on site j
  // is its letter there followed by its node on site j + 1.
  std::vector<SuffixNode> nodes(1);
  std::vector<std::uint32_t> node_of(terms.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;  // (key, term)
  for (std::size_t j = n; j-- > 0;) {
    keyed.clear();
    for (std::uint32_t t = 0; t < terms.size(); ++t)
      if (lo[t] <= j && j <= hi[t])
        keyed.push_back({(std::uint64_t(node_of[t]) << 2) |
                             std::uint64_t(letters[offset[t] + j - lo[t]]),
                         t});
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t i = 0; i < keyed.size(); ++i) {
      const std::uint64_t key = keyed[i].first;
      if (i == 0 || key != keyed[i - 1].first)
        nodes.push_back({P(key & 3), std::uint32_t(key >> 2)});
      node_of[keyed[i].second] = std::uint32_t(nodes.size() - 1);
    }
  }

  // A graph-bound term at the current site: (in-state, letter) is its left
  // vertex, its node on the next site its right vertex. `order` keeps the
  // open list's order, so merged coefficients add in a fixed order.
  struct Entry {
    std::uint64_t left_key;  // in-state << 2 | letter
    std::uint32_t next;
    std::uint32_t order;
    bool operator<(const Entry& o) const {
      return std::tie(left_key, next, order) <
             std::tie(o.left_key, o.next, o.order);
    }
  };
  std::vector<Open> open, carried;
  std::vector<Entry> entries, closing;
  std::vector<std::uint32_t> right_suffix;
  std::vector<char> cover_left, cover_right;
  std::vector<Edge> site_edges;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::uint32_t t = 0; t < terms.size(); ++t)
      if (lo[t] == k) open.push_back({MeasurementMpo::kVacuum, node_of[t],
                                      terms[t].second});

    // Terms ending on this site close into the sum; the others form the
    // graph. Sorting by (left vertex, right vertex, order) numbers the left
    // vertices and lays the edges out as adjacency lists; equal pairs merge
    // into one edge carrying the summed coefficient.
    entries.clear();
    closing.clear();
    for (std::uint32_t i = 0; i < open.size(); ++i) {
      const SuffixNode& node = nodes[open[i].suffix];
      const std::uint64_t key =
          (std::uint64_t(open[i].left) << 2) | std::uint64_t(node.letter);
      (node.next == 0 ? closing : entries).push_back({key, node.next, i});
    }
    require(k + 1 < n || entries.empty(),
            "build_measurement_mpo: a term runs past the last site");
    std::sort(entries.begin(), entries.end());
    std::sort(closing.begin(), closing.end());

    right_suffix.clear();
    for (const Entry& e : entries) right_suffix.push_back(e.next);
    std::sort(right_suffix.begin(), right_suffix.end());
    right_suffix.erase(std::unique(right_suffix.begin(), right_suffix.end()),
                       right_suffix.end());

    Bipartite g;
    g.n_right = right_suffix.size();
    std::vector<std::uint64_t> left_key;
    std::vector<cplx> alpha;  // per edge (adjacency slot)
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      const bool new_left = i == 0 || e.left_key != entries[i - 1].left_key;
      if (new_left) {
        if (i > 0) g.begin.push_back(std::uint32_t(g.adj.size()));
        left_key.push_back(e.left_key);
      }
      if (new_left || e.next != entries[i - 1].next) {
        g.adj.push_back(std::uint32_t(
            std::lower_bound(right_suffix.begin(), right_suffix.end(),
                             e.next) -
            right_suffix.begin()));
        alpha.push_back(cplx{});
      }
      alpha.back() += open[e.order].alpha;
    }
    g.n_left = left_key.size();
    if (g.n_left > 0) g.begin.push_back(std::uint32_t(g.adj.size()));
    minimum_vertex_cover(g, cover_left, cover_right);

    // One state per cover vertex, the left ones first. A covered left
    // vertex becomes the state (left part) ⊗ letter and its terms keep
    // their coefficients; a covered right vertex becomes the state
    // Σ α · (left part) ⊗ letter over its remaining edges, and its terms
    // continue as one with coefficient 1.
    std::vector<std::uint32_t> state_of_left(g.n_left, kNone),
        state_of_right(g.n_right, kNone);
    std::uint32_t states = 0;
    for (std::size_t u = 0; u < g.n_left; ++u)
      if (cover_left[u]) state_of_left[u] = states++;
    for (std::size_t v = 0; v < g.n_right; ++v)
      if (cover_right[v]) state_of_right[v] = states++;
    if (k + 1 < n) mpo.bond[k] = states;

    site_edges.clear();
    carried.clear();
    for (std::uint32_t u = 0; u < g.n_left; ++u) {
      const std::uint32_t in = std::uint32_t(left_key[u] >> 2);
      const P letter = P(left_key[u] & 3);
      if (cover_left[u])
        site_edges.push_back({in, state_of_left[u], letter, cplx{1.0}});
      for (std::uint32_t i = g.begin[u]; i < g.begin[u + 1]; ++i) {
        const std::uint32_t v = g.adj[i];
        if (cover_left[u])
          carried.push_back({state_of_left[u], right_suffix[v], alpha[i]});
        else
          site_edges.push_back({in, state_of_right[v], letter, alpha[i]});
      }
    }
    for (std::uint32_t v = 0; v < g.n_right; ++v)
      if (cover_right[v])
        carried.push_back({state_of_right[v], right_suffix[v], cplx{1.0}});
    // Closing terms merged per (in-state, letter).
    for (std::size_t i = 0; i < closing.size(); ++i) {
      const Entry& e = closing[i];
      if (i == 0 || e.left_key != closing[i - 1].left_key)
        site_edges.push_back({std::uint32_t(e.left_key >> 2),
                              MeasurementMpo::kClose, P(e.left_key & 3),
                              cplx{}});
      site_edges.back().coeff += open[e.order].alpha;
    }

    std::stable_sort(site_edges.begin(), site_edges.end(),
                     [](const Edge& a, const Edge& b) { return a.in < b.in; });
    for (std::size_t i = 0; i < site_edges.size(); ++i)
      if (i == 0 || site_edges[i].in != site_edges[i - 1].in) ++mpo.updates;
    mpo.edges.insert(mpo.edges.end(), site_edges.begin(), site_edges.end());
    mpo.first_edge[k + 1] = mpo.edges.size();
    open.swap(carried);
  }
  mpo.edges.shrink_to_fit();
  return mpo;
}

}  // namespace q2::pauli
