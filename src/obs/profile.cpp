#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace q2::obs {
namespace {

// Per-thread call-tree node. `name` points at the OBS_SPAN string literal
// (static storage), so identity compares are a pointer check first.
struct PNode {
  const char* name = nullptr;
  std::size_t parent = 0;
  std::vector<std::size_t> children;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
};

struct ThreadProfile {
  std::mutex mutex;
  std::vector<PNode> nodes;  // nodes[0] is the synthetic root
  std::size_t current = 0;   // index of the innermost open node
  std::uint32_t tid = 0;
  std::string tag;
  ThreadProfile() { nodes.emplace_back(); }
};

struct ProfileList {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadProfile>> threads;
  std::uint32_t next_tid = 1;
};

// Leaked: worker threads may record spans during static destruction.
ProfileList& profile_list() {
  static ProfileList* list = new ProfileList;
  return *list;
}

ThreadProfile& local_profile() {
  thread_local std::shared_ptr<ThreadProfile> prof = [] {
    auto p = std::make_shared<ThreadProfile>();
    ProfileList& list = profile_list();
    std::lock_guard<std::mutex> lock(list.mutex);
    p->tid = list.next_tid++;
    p->tag = "t" + std::to_string(p->tid);
    list.threads.push_back(p);
    return p;
  }();
  return *prof;
}

// Caller holds tp.mutex.
std::size_t find_or_create_child(ThreadProfile& tp, std::size_t parent,
                                 const char* name) {
  for (std::size_t c : tp.nodes[parent].children) {
    const char* cn = tp.nodes[c].name;
    if (cn == name || std::strcmp(cn, name) == 0) return c;
  }
  const std::size_t idx = tp.nodes.size();
  PNode node;
  node.name = name;
  node.parent = parent;
  tp.nodes.push_back(std::move(node));
  tp.nodes[parent].children.push_back(idx);
  return idx;
}

}  // namespace

namespace detail {

void profile_enter(const char* name) {
  ThreadProfile& tp = local_profile();
  std::lock_guard<std::mutex> lock(tp.mutex);
  tp.current = find_or_create_child(tp, tp.current, name);
}

void profile_exit(double elapsed_us) {
  ThreadProfile& tp = local_profile();
  std::lock_guard<std::mutex> lock(tp.mutex);
  if (tp.current == 0) return;  // enter was recorded before profiling flipped on
  PNode& node = tp.nodes[tp.current];
  if (node.count == 0 || elapsed_us < node.min_us) node.min_us = elapsed_us;
  if (node.count == 0 || elapsed_us > node.max_us) node.max_us = elapsed_us;
  node.total_us += elapsed_us;
  ++node.count;
  tp.current = node.parent;
}

void profile_charge(std::uint64_t flops, std::uint64_t bytes) {
  ThreadProfile& tp = local_profile();
  std::lock_guard<std::mutex> lock(tp.mutex);
  // Charges with no open span land on the root, which the snapshot elides —
  // they still show up in the work.flops / work.bytes counters.
  PNode& node = tp.nodes[tp.current];
  node.flops += flops;
  node.bytes += bytes;
}

}  // namespace detail

void set_thread_tag(const std::string& tag) {
  ThreadProfile& tp = local_profile();
  std::lock_guard<std::mutex> lock(tp.mutex);
  tp.tag = tag;
}

void clear_profile() {
  ProfileList& list = profile_list();
  std::lock_guard<std::mutex> list_lock(list.mutex);
  for (const auto& tp : list.threads) {
    std::lock_guard<std::mutex> lock(tp->mutex);
    if (tp->current == 0) {
      tp->nodes.clear();
      tp->nodes.emplace_back();
    } else {
      // A span (or adoption) is open on this thread: indices must stay
      // valid, so zero the stats but keep the tree shape.
      for (PNode& n : tp->nodes) {
        n.count = 0;
        n.total_us = n.min_us = n.max_us = 0.0;
        n.flops = n.bytes = 0;
      }
    }
  }
}

ProfilePath current_profile_path() {
  ProfilePath path;
  if (!profiling_enabled()) return path;
  ThreadProfile& tp = local_profile();
  std::lock_guard<std::mutex> lock(tp.mutex);
  path.engaged_ = true;
  for (std::size_t i = tp.current; i != 0; i = tp.nodes[i].parent)
    path.names_.push_back(tp.nodes[i].name);
  std::reverse(path.names_.begin(), path.names_.end());
  return path;
}

ScopedPathAdoption::ScopedPathAdoption(const ProfilePath& path) {
  if (!path.engaged()) return;
  ThreadProfile& tp = local_profile();
  std::lock_guard<std::mutex> lock(tp.mutex);
  saved_ = tp.current;
  std::size_t cur = 0;
  for (const char* name : path.names_)
    cur = find_or_create_child(tp, cur, name);
  tp.current = cur;
  active_ = true;
}

ScopedPathAdoption::~ScopedPathAdoption() {
  if (!active_) return;
  ThreadProfile& tp = local_profile();
  std::lock_guard<std::mutex> lock(tp.mutex);
  tp.current = saved_;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Thread trees merged by path. Parents are always created before children,
// so a reverse index walk visits children first.
struct MNode {
  std::string name;
  std::size_t parent = 0;
  int depth = 0;
  std::map<std::string, std::size_t> children;  // name-ordered
  std::uint64_t count = 0;
  double total_us = 0.0;
  double min_us = kInf;
  double max_us = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cum_flops = 0;
  std::uint64_t cum_bytes = 0;
  double self_us = 0.0;  // summed over threads, each from its own tree
  std::map<std::string, double> by_thread;  // tag -> wall us
  bool has_data = false;
};

std::vector<MNode> merged_tree() {
  std::vector<MNode> out(1);
  std::vector<std::shared_ptr<ThreadProfile>> threads;
  {
    ProfileList& list = profile_list();
    std::lock_guard<std::mutex> lock(list.mutex);
    threads = list.threads;
  }
  for (const auto& tp : threads) {
    std::lock_guard<std::mutex> lock(tp->mutex);
    std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
    while (!stack.empty()) {
      const auto [src, dst] = stack.back();
      stack.pop_back();
      const PNode& sn = tp->nodes[src];
      if (src != 0) {
        MNode& dn = out[dst];
        dn.count += sn.count;
        dn.total_us += sn.total_us;
        if (sn.count > 0) {
          dn.min_us = std::min(dn.min_us, sn.min_us);
          dn.max_us = std::max(dn.max_us, sn.max_us);
        }
        dn.flops += sn.flops;
        dn.bytes += sn.bytes;
        // Self time on this thread: the node's own time minus that of its
        // children on the same thread, which ran inside it. A node held only
        // as an adopted path (count 0) has no time of its own to split.
        if (sn.count > 0) {
          double children_us = 0.0;
          for (std::size_t c : sn.children)
            children_us += tp->nodes[c].total_us;
          dn.self_us += std::max(0.0, sn.total_us - children_us);
        }
        if (sn.count > 0 || sn.flops > 0 || sn.bytes > 0) {
          dn.has_data = true;
          dn.by_thread[tp->tag] += sn.total_us;
        }
      }
      for (std::size_t c : sn.children) {
        const std::string name = tp->nodes[c].name;
        auto it = out[dst].children.find(name);
        std::size_t cdst;
        if (it == out[dst].children.end()) {
          cdst = out.size();
          out.emplace_back();
          out[cdst].name = name;
          out[cdst].parent = dst;
          out[cdst].depth = out[dst].depth + 1;
          out[dst].children.emplace(name, cdst);
        } else {
          cdst = it->second;
        }
        stack.push_back({c, cdst});
      }
    }
  }
  for (std::size_t i = out.size(); i-- > 1;) {
    MNode& n = out[i];
    n.cum_flops += n.flops;
    n.cum_bytes += n.bytes;
    MNode& p = out[n.parent];
    p.cum_flops += n.cum_flops;
    p.cum_bytes += n.cum_bytes;
    if (n.has_data) p.has_data = true;
  }
  return out;
}

void emit_preorder(const std::vector<MNode>& tree, std::size_t idx,
                   const std::string& prefix, std::vector<ProfileNode>& out) {
  const MNode& n = tree[idx];
  std::string path = prefix;
  if (idx != 0) {
    path = prefix.empty() ? n.name : prefix + ";" + n.name;
    ProfileNode pn;
    pn.name = n.name;
    pn.path = path;
    pn.depth = n.depth - 1;  // the synthetic root is elided: top level = 0
    pn.count = n.count;
    pn.total_us = n.total_us;
    pn.self_us = n.self_us;
    pn.min_us = n.count > 0 ? n.min_us : 0.0;
    pn.max_us = n.max_us;
    pn.flops = n.cum_flops;
    pn.bytes = n.cum_bytes;
    pn.self_flops = n.flops;
    pn.self_bytes = n.bytes;
    pn.by_thread.assign(n.by_thread.begin(), n.by_thread.end());
    out.push_back(std::move(pn));
  }
  for (const auto& [name, child] : n.children) {
    (void)name;
    if (tree[child].has_data) emit_preorder(tree, child, path, out);
  }
}

double node_gflops(const ProfileNode& n) {
  return n.total_us > 0.0 ? double(n.flops) * 1e-3 / n.total_us : 0.0;
}
double node_intensity(const ProfileNode& n) {
  return n.bytes > 0 ? double(n.flops) / double(n.bytes) : 0.0;
}

}  // namespace

std::vector<ProfileNode> profile_snapshot() {
  const std::vector<MNode> tree = merged_tree();
  std::vector<ProfileNode> out;
  emit_preorder(tree, 0, "", out);
  return out;
}

std::string profile_json() {
  const std::vector<ProfileNode> nodes = profile_snapshot();
  std::string nodes_json = "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ProfileNode& n = nodes[i];
    if (i > 0) nodes_json += ',';
    std::string by_thread = "{";
    for (std::size_t t = 0; t < n.by_thread.size(); ++t) {
      if (t > 0) by_thread += ',';
      by_thread += '"' + json_escape(n.by_thread[t].first) +
                   "\":" + json_number(n.by_thread[t].second);
    }
    by_thread += '}';
    nodes_json += json_object({
        {"name", n.name},
        {"path", n.path},
        {"depth", n.depth},
        {"count", n.count},
        {"total_us", n.total_us},
        {"self_us", n.self_us},
        {"min_us", n.min_us},
        {"max_us", n.max_us},
        {"flops", n.flops},
        {"bytes", n.bytes},
        {"self_flops", n.self_flops},
        {"self_bytes", n.self_bytes},
        {"gflops", node_gflops(n)},
        {"intensity", node_intensity(n)},
        {"by_thread", JsonValue::raw(std::move(by_thread))},
    });
  }
  nodes_json += ']';

  // Rank/thread attribution travels with the tree: every parallel-runtime and
  // work-accounting instrument from the registry, by prefix.
  const MetricsSnapshot ms = Registry::global().snapshot();
  const auto is_parallel = [](const std::string& name) {
    for (const char* p : {"pool.", "comm.", "scheduler.", "work.", "swsim."})
      if (name.rfind(p, 0) == 0) return true;
    return false;
  };
  std::string par = "{";
  bool first = true;
  for (const auto& [k, v] : ms.counters) {
    if (!is_parallel(k)) continue;
    if (!first) par += ',';
    first = false;
    par += '"' + json_escape(k) + "\":" + std::to_string(v);
  }
  for (const auto& [k, v] : ms.gauges) {
    if (!is_parallel(k)) continue;
    if (!first) par += ',';
    first = false;
    par += '"' + json_escape(k) + "\":" + json_number(v);
  }
  par += '}';

  return json_object({
      {"profile", JsonValue::raw(std::move(nodes_json))},
      {"parallel", JsonValue::raw(std::move(par))},
      {"dropped_spans", trace_dropped_count()},
  });
}

std::string profile_text() {
  const std::vector<ProfileNode> nodes = profile_snapshot();
  std::string out;
  char line[320];
  std::snprintf(line, sizeof line, "%-44s %9s %12s %12s %10s %9s %8s\n", "span",
                "count", "total_ms", "self_ms", "max_ms", "GFLOP/s", "flop/B");
  out += line;
  for (const ProfileNode& n : nodes) {
    std::string name(std::size_t(2 * n.depth), ' ');
    name += n.name;
    std::snprintf(line, sizeof line,
                  "%-44s %9llu %12.3f %12.3f %10.3f %9.2f %8.2f\n",
                  name.c_str(), static_cast<unsigned long long>(n.count),
                  n.total_us / 1000.0, n.self_us / 1000.0, n.max_us / 1000.0,
                  node_gflops(n), node_intensity(n));
    out += line;
  }
  return out;
}

bool write_profile_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string body = profile_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace q2::obs
