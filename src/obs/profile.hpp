// Hierarchical span profile: rolls the per-thread OBS_SPAN stream into a
// call-tree aggregate (per-node count, total/self wall time, min/max, per-
// thread breakdown) with FLOP/byte work accounting for roofline-style
// attribution. Usage:
//
//   obs::set_profiling(true);
//   ... run instrumented code (OBS_SPAN + WorkCounter::charge) ...
//   std::puts(obs::profile_text().c_str());        // aligned table
//   obs::write_profile_file("profile.json");       // machine-readable tree
//
// The profile shares the OBS_SPAN hook with tracing (see trace.hpp): when
// both are off a span costs one relaxed atomic load. Each thread owns a
// private call tree (one uncontended mutex hop per span enter/exit, same
// cost model as the trace buffers); trees are merged by node *path* at
// export, so spans recorded by pool workers under a ScopedPathAdoption
// (below) land on the same node as the caller's — node identity, and hence
// every flop/byte count charged at a call site, is independent of the
// thread count.
//
// Self time is computed on each thread's own tree, as the node's time minus
// that of its children on the same thread, and then summed over threads. A
// pool worker's spans nest under the dispatching node through an adopted
// path, which has no time of that thread's own, so they never subtract from
// the dispatcher's wall time: 0 <= self <= total on every node, however wide
// the fan-out. Total is summed over threads and can exceed the wall time of
// the parent that dispatched the work.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace q2::obs {

namespace detail {
// Span hooks, called by ScopedSpan (trace.hpp) when the profiling bit of the
// span mask is set.
void profile_enter(const char* name);
void profile_exit(double elapsed_us);
// Adds work to the calling thread's currently open profile node.
void profile_charge(std::uint64_t flops, std::uint64_t bytes);
}  // namespace detail

/// Names the calling thread in the profile's per-thread breakdown (e.g.
/// "rank3", "worker0"). Unnamed threads appear as "t<id>".
void set_thread_tag(const std::string& tag);

/// Discards all recorded profile data. Threads with an open span keep their
/// tree structure (zeroed); idle threads drop it entirely.
void clear_profile();

/// One merged call-tree node, as exported by profile_snapshot(). flops/bytes
/// are cumulative over the subtree (what a roofline wants per phase);
/// self_flops/self_bytes are the charges recorded at this node itself.
struct ProfileNode {
  std::string name;  ///< span name (last path component)
  std::string path;  ///< full path from the root, components joined by ';'
  int depth = 0;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< total less same-thread children; 0..total
  double min_us = 0.0;
  double max_us = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t self_flops = 0;
  std::uint64_t self_bytes = 0;
  /// (thread tag, wall time at this node) for every contributing thread.
  std::vector<std::pair<std::string, double>> by_thread;
};

/// Merged call tree in pre-order (parents before children, siblings in name
/// order). Nodes with no recorded data anywhere in their subtree are elided.
std::vector<ProfileNode> profile_snapshot();

/// {"profile":[{node}...],"parallel":{...},"dropped_spans":N}. The
/// "parallel" object carries the pool./comm./scheduler./work. metrics so the
/// rank/thread attribution travels with the tree.
std::string profile_json();
/// Aligned text table of the call tree (what shutdown prints to stderr when
/// --profile= is set).
std::string profile_text();
/// Writes profile_json() to `path`; returns false on I/O failure.
bool write_profile_file(const std::string& path);

/// Captured open-span path of a thread, used to re-root worker spans under
/// the node that dispatched them. Capture is cheap and returns a disengaged
/// path when profiling is off.
class ProfilePath {
 public:
  bool engaged() const { return engaged_; }

 private:
  friend ProfilePath current_profile_path();
  friend class ScopedPathAdoption;
  bool engaged_ = false;
  std::vector<const char*> names_;  // root-first span names (static storage)
};

/// The calling thread's open span path (disengaged if profiling is off).
ProfilePath current_profile_path();

/// RAII adoption of a captured path: spans opened by this thread while the
/// adoption is live nest under the captured path instead of the thread's own
/// stack. The path's intermediate nodes are created virtually (no count/time
/// of their own). No-op for a disengaged path.
class ScopedPathAdoption {
 public:
  explicit ScopedPathAdoption(const ProfilePath& path);
  ~ScopedPathAdoption();
  ScopedPathAdoption(const ScopedPathAdoption&) = delete;
  ScopedPathAdoption& operator=(const ScopedPathAdoption&) = delete;

 private:
  bool active_ = false;
  std::size_t saved_ = 0;
};

}  // namespace q2::obs
