// Checkpoint subsystem unit tests: the byte codec (exact double round trips),
// the versioned CRC-protected snapshot container (corruption/truncation
// rejection), the rotation manager with fallback-to-newest-valid, fault
// injection, the domain serializers (Mps/OptimizerState),
// and the Rng::index(0) underflow regression.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "ckpt/checkpoint.hpp"
#include "ckpt/serialize.hpp"
#include "ckpt/snapshot.hpp"
#include "circuit/builder.hpp"
#include "common/rng.hpp"
#include "sim/mps.hpp"

namespace q2::ckpt {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test case (removed up front, not behind, so a
// failing test leaves its files around for inspection).
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("q2_ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void expect_bits(double a, double b) {
  EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(double)));
}

TEST(Crc32, KnownAnswer) {
  // The classic CRC-32 check value.
  EXPECT_EQ(0xCBF43926u, crc32("123456789", 9));
  EXPECT_EQ(0x00000000u, crc32("", 0));
}

TEST(ByteCodec, RoundTripsPrimitives) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.b(true);
  w.f64(-0.0);
  w.f64(std::nan(""));
  w.f64(5e-324);  // smallest denormal
  w.c128({1.5, -2.5});
  w.str("hello");
  w.vec(std::vector<double>{1.0, 2.0, 3.0});
  w.vec(std::vector<std::size_t>{7, 8});
  w.vec(std::vector<std::vector<double>>{{1.0}, {}, {2.0, 3.0}});

  ByteReader r(w.buffer());
  EXPECT_EQ(0xAB, r.u8());
  EXPECT_EQ(0xDEADBEEFu, r.u32());
  EXPECT_EQ(0x0123456789ABCDEFull, r.u64());
  EXPECT_EQ(-42, r.i32());
  EXPECT_TRUE(r.b());
  expect_bits(-0.0, r.f64());
  EXPECT_TRUE(std::isnan(r.f64()));
  expect_bits(5e-324, r.f64());
  EXPECT_EQ(cplx(1.5, -2.5), r.c128());
  EXPECT_EQ("hello", r.str());
  EXPECT_EQ((std::vector<double>{1.0, 2.0, 3.0}), r.vec_f64());
  EXPECT_EQ((std::vector<std::size_t>{7, 8}), r.vec_u64());
  EXPECT_EQ((std::vector<std::vector<double>>{{1.0}, {}, {2.0, 3.0}}),
            r.vec_vec_f64());
  EXPECT_TRUE(r.at_end());
}

TEST(ByteCodec, ThrowsOnTruncation) {
  ByteWriter w;
  w.vec(std::vector<double>{1.0, 2.0, 3.0});
  std::vector<std::uint8_t> bytes = w.take();
  bytes.resize(bytes.size() - 1);
  ByteReader r(bytes);
  EXPECT_THROW(r.vec_f64(), Error);
}

TEST(ByteCodec, RejectsHugeCorruptCountWithoutAllocating) {
  ByteWriter w;
  w.u64(~0ull);  // element count far beyond the record
  ByteReader r(w.buffer());
  EXPECT_THROW(r.vec_f64(), Error);
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  Snapshot s;
  s.set("alpha", {1, 2, 3});
  s.set("beta", {});
  s.set("alpha", {9, 8});  // replaces
  const std::vector<std::uint8_t> bytes = s.encode();
  EXPECT_EQ(bytes.size(), s.encoded_bytes());

  const auto back = Snapshot::decode(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(2u, back->section_count());
  EXPECT_EQ((std::vector<std::uint8_t>{9, 8}), back->at("alpha"));
  EXPECT_TRUE(back->at("beta").empty());
  EXPECT_EQ(nullptr, back->find("gamma"));
  EXPECT_THROW(back->at("gamma"), Error);
}

TEST(Snapshot, RejectsCorruption) {
  Snapshot s;
  s.set("data", std::vector<std::uint8_t>(64, 0x5A));
  const std::vector<std::uint8_t> good = s.encode();

  // Bad magic.
  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(Snapshot::decode(bad.data(), bad.size()).has_value());

  // Unknown format version.
  bad = good;
  bad[8] ^= 0xFF;
  EXPECT_FALSE(Snapshot::decode(bad.data(), bad.size()).has_value());

  // Flipped payload byte -> CRC mismatch.
  bad = good;
  bad[bad.size() - 1] ^= 0xFF;
  EXPECT_FALSE(Snapshot::decode(bad.data(), bad.size()).has_value());

  // Truncation at every prefix length must be rejected, never crash.
  for (std::size_t n = 0; n < good.size(); ++n)
    EXPECT_FALSE(Snapshot::decode(good.data(), n).has_value()) << n;

  // Trailing garbage.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(Snapshot::decode(bad.data(), bad.size()).has_value());

  // The untouched original still decodes.
  EXPECT_TRUE(Snapshot::decode(good.data(), good.size()).has_value());
}

TEST(Snapshot, FileRoundTripAndMissingFile) {
  const fs::path dir = scratch("file_round_trip");
  const std::string path = (dir / "snap.q2").string();
  Snapshot s;
  s.set("payload", {0xDE, 0xAD});
  s.write_file(path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // tmp renamed away

  const auto back = Snapshot::read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ((std::vector<std::uint8_t>{0xDE, 0xAD}), back->at("payload"));
  EXPECT_FALSE(Snapshot::read_file((dir / "missing").string()).has_value());
}

TEST(Serializers, MpsStateRoundTripsBitIdentically) {
  // Entangle a 6-qubit register so every bond is non-trivial.
  Rng rng(5);
  const circ::Circuit circuit = circ::block_entangling_circuit(6, 4, 3, rng);
  sim::MpsOptions options;
  options.max_bond = 4;  // force truncation so the error accumulator is live
  sim::Mps mps(6, options);
  mps.run(circuit);

  ByteWriter w;
  write_mps(w, mps.export_state());
  ByteReader r(w.buffer());
  const sim::Mps back = sim::Mps::import_state(read_mps(r));

  expect_bits(mps.truncation_error(), back.truncation_error());
  EXPECT_EQ(mps.max_bond_dimension(), back.max_bond_dimension());
  const std::vector<cplx> sv_a = mps.to_statevector();
  const std::vector<cplx> sv_b = back.to_statevector();
  ASSERT_EQ(sv_a.size(), sv_b.size());
  EXPECT_EQ(0, std::memcmp(sv_a.data(), sv_b.data(),
                           sv_a.size() * sizeof(cplx)));
}

TEST(Serializers, OptimizerStateRoundTrip) {
  vqe::OptimizerState s;
  s.initialized = true;
  s.iteration = 12;
  s.converged = false;
  s.finished = false;
  s.energy = -1.5;
  s.parameters = {0.1, 0.2};
  s.gradient = {1e-3, -2e-3};
  s.history = {-1.0, -1.2, -1.4, -1.5};
  s.lbfgs_s = {{0.1, 0.1}, {0.05, -0.05}};
  s.lbfgs_y = {{0.2, 0.2}, {0.1, -0.1}};
  s.lbfgs_rho = {1.0, 2.0};

  ByteWriter w;
  write_optimizer_state(w, s);
  ByteReader r(w.buffer());
  const vqe::OptimizerState b = read_optimizer_state(r);
  EXPECT_EQ(s.iteration, b.iteration);
  EXPECT_EQ(s.parameters, b.parameters);
  EXPECT_EQ(s.gradient, b.gradient);
  EXPECT_EQ(s.history, b.history);
  EXPECT_EQ(s.lbfgs_s, b.lbfgs_s);
  EXPECT_EQ(s.lbfgs_y, b.lbfgs_y);
  EXPECT_EQ(s.lbfgs_rho, b.lbfgs_rho);

  // A reader pointed at the wrong type refuses instead of misparsing.
  ByteReader wrong(w.buffer());
  EXPECT_THROW(read_mps(wrong), Error);
}

TEST(Rng, IndexOfZeroIsSafe) {
  // Regression: uniform_int_distribution(0, n - 1) underflowed on n == 0.
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(0u, rng.index(0));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(0u, rng.index(1));
  bool saw_nonzero = false;
  for (int i = 0; i < 100; ++i) {
    const std::size_t v = rng.index(3);
    EXPECT_LT(v, 3u);
    saw_nonzero |= v != 0;
  }
  EXPECT_TRUE(saw_nonzero);
}

Snapshot tiny_snapshot(int payload) {
  Snapshot s;
  ByteWriter w;
  w.i32(payload);
  s.set("data", w.take());
  return s;
}

TEST(Manager, RotationKeepsNewestK) {
  const fs::path dir = scratch("rotation");
  CheckpointOptions options;
  options.path = (dir / "run.ckpt").string();
  options.keep = 3;
  CheckpointManager mgr(options);
  for (int it = 1; it <= 7; ++it) mgr.save(it, tiny_snapshot(it));
  EXPECT_EQ((std::vector<std::uint64_t>{5, 6, 7}),
            mgr.existing_sequence_numbers());

  const auto snap = mgr.load_latest_valid();
  ASSERT_TRUE(snap.has_value());
  ByteReader r(snap->at("data"));
  EXPECT_EQ(7, r.i32());
}

TEST(Manager, FallsBackToNewestValidSnapshot) {
  const fs::path dir = scratch("fallback");
  CheckpointOptions options;
  options.path = (dir / "run.ckpt").string();
  CheckpointManager mgr(options);
  for (int it = 1; it <= 3; ++it) mgr.save(it, tiny_snapshot(it));

  // Bit-rot the newest file and tear the middle one.
  {
    std::fstream f((dir / "run.ckpt.000003").string(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put(char(0xFF));
  }
  fs::resize_file(dir / "run.ckpt.000002", 10);

  const auto snap = mgr.load_latest_valid();
  ASSERT_TRUE(snap.has_value());
  ByteReader r(snap->at("data"));
  EXPECT_EQ(1, r.i32());
}

TEST(Manager, NonResumingWriterStartsFresh) {
  const fs::path dir = scratch("fresh");
  CheckpointOptions options;
  options.path = (dir / "run.ckpt").string();
  {
    CheckpointManager mgr(options);
    mgr.save(1, tiny_snapshot(1));
    mgr.save(2, tiny_snapshot(2));
  }
  options.resume = false;
  CheckpointManager fresh(options);
  EXPECT_TRUE(fresh.existing_sequence_numbers().empty());
  EXPECT_FALSE(fresh.load_latest_valid().has_value());
  fresh.save(5, tiny_snapshot(5));
  EXPECT_EQ((std::vector<std::uint64_t>{1}),
            fresh.existing_sequence_numbers());

  // A non-writer (mirroring rank) must leave the family untouched.
  options.resume = true;
  CheckpointManager reader(options, /*writer=*/false);
  ASSERT_TRUE(reader.load_latest_valid().has_value());
  reader.save(6, tiny_snapshot(6));  // no-op
  EXPECT_EQ(1u, reader.existing_sequence_numbers().size());
}

TEST(Manager, CadenceHonoursEveryN) {
  CheckpointOptions options;
  options.path = "unused";
  options.every_n_iterations = 3;
  CheckpointManager mgr(options, /*writer=*/false);
  EXPECT_FALSE(mgr.due(1, false));
  EXPECT_FALSE(mgr.due(2, false));
  EXPECT_TRUE(mgr.due(3, false));
  EXPECT_FALSE(mgr.due(4, false));
  EXPECT_TRUE(mgr.due(6, false));
  EXPECT_TRUE(mgr.due(1, true));  // terminal snapshots always fire
  EXPECT_FALSE(mgr.due(0, false));
}

TEST(Fault, CrashAndCorruptionInjection) {
  const fs::path dir = scratch("fault");
  CheckpointOptions options;
  options.path = (dir / "run.ckpt").string();
  options.fault.crash_at_iteration = 3;
  options.fault.corrupt_at_iteration = 3;
  options.fault.corruption = FaultPlan::Corruption::kFlipByte;
  options.fault.flip_byte_offset = 30;
  CheckpointManager mgr(options);
  mgr.save(1, tiny_snapshot(1));
  mgr.save(2, tiny_snapshot(2));
  try {
    mgr.save(3, tiny_snapshot(3));
    FAIL() << "expected InjectedCrash";
  } catch (const InjectedCrash& crash) {
    EXPECT_EQ(3, crash.iteration());
  }
  // Snapshot 3 exists but is corrupt; recovery lands on snapshot 2.
  EXPECT_EQ(3u, mgr.existing_sequence_numbers().size());
  const auto snap = mgr.load_latest_valid();
  ASSERT_TRUE(snap.has_value());
  ByteReader r(snap->at("data"));
  EXPECT_EQ(2, r.i32());
}

TEST(Fault, TruncationInjection) {
  const fs::path dir = scratch("truncate");
  CheckpointOptions options;
  options.path = (dir / "run.ckpt").string();
  options.fault.corrupt_at_iteration = 2;
  options.fault.corruption = FaultPlan::Corruption::kTruncate;
  options.fault.truncate_to_bytes = 16;
  CheckpointManager mgr(options);
  mgr.save(1, tiny_snapshot(1));
  mgr.save(2, tiny_snapshot(2));
  EXPECT_EQ(16u, fs::file_size(dir / "run.ckpt.000002"));
  const auto snap = mgr.load_latest_valid();
  ASSERT_TRUE(snap.has_value());
  ByteReader r(snap->at("data"));
  EXPECT_EQ(1, r.i32());
}

TEST(Flags, OptionsFromArgs) {
  const char* raw[] = {"prog",          "--checkpoint=/tmp/x/run.ckpt",
                       "positional",    "--checkpoint-every=4",
                       "--resume",      "tail"};
  int argc = 6;
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  const CheckpointOptions options = options_from_args(argc, argv.data());
  EXPECT_EQ("/tmp/x/run.ckpt", options.path);
  EXPECT_EQ(4, options.every_n_iterations);
  EXPECT_TRUE(options.resume);
  ASSERT_EQ(3, argc);  // flags stripped, positionals kept in order
  EXPECT_STREQ("prog", argv[0]);
  EXPECT_STREQ("positional", argv[1]);
  EXPECT_STREQ("tail", argv[2]);
}

}  // namespace
}  // namespace q2::ckpt
