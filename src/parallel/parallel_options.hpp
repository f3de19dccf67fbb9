// Shared-memory parallelism knobs, plumbed from driver options (MpsOptions /
// VqeOptions / DmetOptions) down to the loops that fan work out onto the
// process-wide ThreadPool. Kept dependency-free so sim/ can embed it without
// pulling in the pool itself.
#pragma once

#include <cstddef>

namespace q2::par {

struct ParallelOptions {
  /// Worker count for parallel loops. 0 = auto: the Q2_THREADS environment
  /// variable if set, otherwise the global pool size. 1 = run serially on the
  /// calling thread (no pool involvement).
  std::size_t n_threads = 0;
  /// Minimum iterations per dynamically-claimed chunk. 0 (the default)
  /// auto-sizes to ~8 chunks per claimant — large ranges stop paying one
  /// atomic claim per iteration; set 1 explicitly when every iteration is a
  /// coarse unit of work (a GEMM macro-tile, a DMET fragment solve).
  /// Chunking never changes results: bodies write per-index slots and
  /// reductions combine in index order.
  std::size_t grain = 0;
};

/// Resolves `opts.n_threads`: explicit value > process default (set via
/// set_default_threads or Q2_THREADS) > global pool size. Always >= 1.
std::size_t resolve_threads(const ParallelOptions& opts);

/// Process-wide default used when ParallelOptions::n_threads == 0. Overrides
/// the Q2_THREADS environment variable. 0 restores env/hardware resolution.
void set_default_threads(std::size_t n);

/// Strips a `--threads=N` flag from argv (examples/benches share this the way
/// they share the telemetry flags) and records it via set_default_threads.
void configure_threads_from_args(int& argc, char** argv);

}  // namespace q2::par
