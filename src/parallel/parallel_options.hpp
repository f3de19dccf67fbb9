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
