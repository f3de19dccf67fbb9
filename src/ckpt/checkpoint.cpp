#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace q2::ckpt {
namespace fs = std::filesystem;
namespace {

obs::Counter& written_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ckpt.snapshots_written");
  return c;
}
obs::Counter& bytes_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ckpt.bytes_written");
  return c;
}
obs::Counter& loaded_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ckpt.snapshots_loaded");
  return c;
}
obs::Counter& rejected_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("ckpt.invalid_rejected");
  return c;
}
obs::Histogram& write_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("ckpt.write_seconds");
  return h;
}
obs::Histogram& read_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("ckpt.read_seconds");
  return h;
}

// Splits a base path into (directory, filename prefix "name.").
void split_base(const std::string& base, fs::path& dir, std::string& prefix) {
  const fs::path p(base);
  dir = p.parent_path().empty() ? fs::path(".") : p.parent_path();
  prefix = p.filename().string() + ".";
}

// Sequence number of `name` under `prefix` ("<prefix>NNNNNN", digits only),
// or nullopt for unrelated files (including the .tmp scratch file).
std::optional<std::uint64_t> parse_seq(const std::string& name,
                                       const std::string& prefix) {
  if (name.size() <= prefix.size() ||
      name.compare(0, prefix.size(), prefix) != 0)
    return std::nullopt;
  const std::string tail = name.substr(prefix.size());
  if (tail.empty() ||
      tail.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return std::strtoull(tail.c_str(), nullptr, 10);
}

void apply_corruption(const std::string& path, const FaultPlan& plan) {
  switch (plan.corruption) {
    case FaultPlan::Corruption::kNone:
      break;
    case FaultPlan::Corruption::kTruncate: {
      std::error_code ec;
      const auto size = fs::file_size(path, ec);
      if (!ec)
        fs::resize_file(path, std::min<std::uintmax_t>(size,
                                                       plan.truncate_to_bytes),
                        ec);
      require(!ec, "ckpt: fault injection failed to truncate snapshot");
      break;
    }
    case FaultPlan::Corruption::kFlipByte: {
      std::FILE* f = std::fopen(path.c_str(), "r+b");
      require(f != nullptr, "ckpt: fault injection cannot open snapshot");
      unsigned char b = 0;
      const long off = long(plan.flip_byte_offset);
      const bool ok = std::fseek(f, off, SEEK_SET) == 0 &&
                      std::fread(&b, 1, 1, f) == 1 &&
                      std::fseek(f, off, SEEK_SET) == 0 &&
                      (b ^= 0xFF, std::fwrite(&b, 1, 1, f) == 1);
      std::fclose(f);
      require(ok, "ckpt: fault injection failed to flip snapshot byte");
      break;
    }
  }
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointOptions options, bool writer)
    : options_(std::move(options)), writer_(writer) {
  require(options_.enabled(), "CheckpointManager: empty snapshot path");
  require(options_.every_n_iterations >= 1 && options_.keep >= 1,
          "CheckpointManager: cadence and rotation depth must be positive");
  fs::path dir;
  std::string prefix;
  split_base(options_.path, dir, prefix);
  std::error_code ec;
  fs::create_directories(dir, ec);
  // Only the writer needs the directory: refuse a path it can never write
  // before the run does any work, not at its first snapshot.
  if (writer_ && ec)
    throw Error("ckpt: cannot create snapshot directory '" + dir.string() +
                "': " + ec.message());

  if (writer_ && !options_.resume) {
    // Fresh run: a stale family must not shadow the new one.
    for (std::uint64_t seq : existing_sequence_numbers())
      fs::remove(file_for(seq), ec);
  }
  const std::vector<std::uint64_t> existing = existing_sequence_numbers();
  next_seq_ = existing.empty() ? 1 : existing.back() + 1;
}

std::string CheckpointManager::file_for(std::uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".%06llu", (unsigned long long)seq);
  return options_.path + buf;
}

std::vector<std::uint64_t> CheckpointManager::existing_sequence_numbers()
    const {
  fs::path dir;
  std::string prefix;
  split_base(options_.path, dir, prefix);
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (const auto seq = parse_seq(entry.path().filename().string(), prefix))
      seqs.push_back(*seq);
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

bool CheckpointManager::due(int iteration, bool finished) const {
  if (finished) return true;
  return iteration > 0 && iteration % options_.every_n_iterations == 0;
}

void CheckpointManager::save(int iteration, const Snapshot& snapshot) {
  if (writer_) {
    Timer timer;
    const std::uint64_t seq = next_seq_++;
    const std::string path = file_for(seq);
    snapshot.write_file(path);
    if (iteration == options_.fault.corrupt_at_iteration)
      apply_corruption(path, options_.fault);

    // Rotate: keep the newest `keep` snapshots.
    std::vector<std::uint64_t> seqs = existing_sequence_numbers();
    std::error_code ec;
    while (seqs.size() > std::size_t(options_.keep)) {
      fs::remove(file_for(seqs.front()), ec);
      seqs.erase(seqs.begin());
    }

    const double seconds = timer.seconds();
    const std::size_t bytes = snapshot.encoded_bytes();
    written_counter().add();
    bytes_counter().add(bytes);
    write_hist().observe(seconds);
    obs::RunReport::global().record("checkpoint",
                                    {{"iteration", iteration},
                                     {"sequence", seq},
                                     {"bytes", bytes},
                                     {"wall_seconds", seconds}});
  }
  // The crash fires on every rank (a dying node takes all its mirrored
  // trajectories with it), writer or not.
  if (iteration == options_.fault.crash_at_iteration)
    throw InjectedCrash(iteration);
}

std::optional<Snapshot> CheckpointManager::load_latest_valid() const {
  if (!options_.resume) return std::nullopt;
  std::vector<std::uint64_t> seqs = existing_sequence_numbers();
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    Timer timer;
    std::optional<Snapshot> snap = Snapshot::read_file(file_for(*it));
    if (snap) {
      loaded_counter().add();
      read_hist().observe(timer.seconds());
      return snap;
    }
    rejected_counter().add();
  }
  return std::nullopt;
}

CheckpointOptions options_from_args(int& argc, char** argv) {
  CheckpointOptions options;
  options.resume = false;
  if (const char* env = std::getenv("Q2_CHECKPOINT")) options.path = env;
  if (const char* env = std::getenv("Q2_CHECKPOINT_EVERY"))
    options.every_n_iterations = std::max(1, std::atoi(env));
  if (const char* env = std::getenv("Q2_RESUME"))
    options.resume = std::atoi(env) != 0;

  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      options.path = arg + 13;
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      options.every_n_iterations = std::max(1, std::atoi(arg + 19));
    } else if (std::strcmp(arg, "--resume") == 0) {
      options.resume = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return options;
}

}  // namespace q2::ckpt
