// Checkpoint policy and rotation. A CheckpointManager owns one family of
// snapshot files `<path>.NNNNNN` (monotone sequence numbers): save() writes
// the next sequence number atomically and prunes down to the newest `keep`
// files; load_latest_valid() walks the family newest-first and returns the
// first snapshot that passes full validation, so a torn or bit-rotted newest
// file silently falls back to the previous good one. Snapshot count, bytes
// and durations are instrumented through src/obs, and examples share the
// --checkpoint=/--checkpoint-every=/--resume flag plumbing (env:
// Q2_CHECKPOINT / Q2_CHECKPOINT_EVERY / Q2_RESUME) via options_from_args.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ckpt/fault.hpp"
#include "ckpt/snapshot.hpp"

namespace q2::ckpt {

struct CheckpointOptions {
  /// Base path for the snapshot family; empty disables checkpointing.
  std::string path;
  /// Snapshot cadence in optimizer iterations / DMET µ-evaluations.
  int every_n_iterations = 1;
  /// Rotation depth: how many snapshots survive on disk.
  int keep = 3;
  /// Load the newest valid snapshot on startup and continue from it. When
  /// false the manager starts fresh (a writer deletes any existing family).
  bool resume = true;
  /// Test-only fault injection, applied by save().
  FaultPlan fault;

  bool enabled() const { return !path.empty(); }
};

class CheckpointManager {
 public:
  /// `writer` is false on ranks that mirror a trajectory but must not touch
  /// the snapshot family (only rank 0 of a distributed run writes; every
  /// rank loads). A non-resuming writer deletes the existing family so a
  /// fresh run can't accidentally continue from stale state. A writer throws
  /// q2::Error when the snapshot directory cannot be created.
  CheckpointManager(CheckpointOptions options, bool writer = true);

  const CheckpointOptions& options() const { return options_; }

  /// Cadence check: snapshot at this iteration? (Always true on `finished`
  /// so a completed run leaves a terminal snapshot behind.)
  bool due(int iteration, bool finished) const;

  /// Writes the snapshot under the next sequence number, applies the fault
  /// plan, rotates old files, then (if the plan says so) throws
  /// InjectedCrash. No-op on non-writer managers except the crash check.
  void save(int iteration, const Snapshot& snapshot);

  /// Newest snapshot that passes validation, or nullopt (also when
  /// options().resume is false). Invalid newer files are counted in
  /// metrics ("ckpt.invalid_rejected") and skipped.
  std::optional<Snapshot> load_latest_valid() const;

  /// Existing sequence numbers, ascending (test/diagnostic hook).
  std::vector<std::uint64_t> existing_sequence_numbers() const;

 private:
  std::string file_for(std::uint64_t seq) const;

  CheckpointOptions options_;
  bool writer_;
  std::uint64_t next_seq_ = 1;
};

/// Strips --checkpoint=PATH, --checkpoint-every=N, and --resume from argv
/// (same contract as obs::configure_from_args), falling back to the
/// Q2_CHECKPOINT / Q2_CHECKPOINT_EVERY / Q2_RESUME environment variables.
/// resume defaults to false here: an explicit --resume (or Q2_RESUME=1) opts
/// in, so plain re-runs start fresh.
CheckpointOptions options_from_args(int& argc, char** argv);

}  // namespace q2::ckpt
