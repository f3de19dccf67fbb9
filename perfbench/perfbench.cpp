// Time-to-solution benchmark binary for the DMET + MPS-VQE stack.
//
// Reads one JSON request on stdin, runs one workload through the public
// solver entry points (vqe::run_vqe_distributed, vqe::run_vqe_on,
// dmet::run_dmet) and writes JSON lines to stdout. perfbench/run.py builds
// this binary, generates the request (molecule geometry from the workload
// seed) and aggregates and checks what it prints. Every number is taken from
// outside the library: wall clocks around the benchmark's own calls, deltas
// of the always-on obs::Registry counters, and (trace mode only) the span
// profile.
//
// Modes:
//   reference  E_HF and the reference energy (FCI for the chains, DMET with
//              the exact FCI fragment solver for the ring).
//   run        repeated untraced solves for `seconds`; one line per solve.
//   trace      per-layer metrics: layer probes, an untraced N-worker solve,
//              an untraced one-worker solve (serial baseline) and a solve
//              with the span profile on; the benchmark's own spans and the
//              profile are written to `trace_file`.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chem/fci.hpp"
#include "chem/hamiltonian.hpp"
#include "chem/scf.hpp"
#include "circuit/reorder.hpp"
#include "dmet/dmet_driver.hpp"
#include "dmet/embedding.hpp"
#include "linalg/simd.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "parallel/comm.hpp"
#include "pauli/grouping.hpp"
#include "sim/mps.hpp"
#include "vqe/vqe_driver.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace q2;
using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, std::uint64_t>;
using Metrics = std::vector<std::pair<std::string, double>>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * double(v.size()));
  const std::size_t i = std::size_t(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return double(t.tv_sec) + 1e-6 * t.tv_usec; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // kilobytes on Linux
}

void check(bool cond, const std::string& msg) {
  if (!cond) throw std::runtime_error("perfbench: " + msg);
}

Counters read_counters() { return obs::Registry::global().snapshot().counters; }

std::uint64_t delta(const Counters& before, const Counters& after,
                    const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

// ---------------------------------------------------------------------------
// The benchmark's own spans (trace mode only): one record around each public
// call the benchmark makes — setup phases, the solver call, every fragment
// solve and every optimizer iteration — kept in memory and written next to
// the library's span profile when the run ends.

struct SpanRecord {
  std::string name;
  int id = 0;
  int parent = -1;
  std::string thread;
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  void enable(bool on) {
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = on;
  }
  // Records [start, end) as a span; returns its id (-1 when disabled).
  int add(const char* name, int parent, Clock::time_point start,
          Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_) return -1;
    SpanRecord r;
    r.name = name;
    r.id = int(spans_.size());
    r.parent = parent;
    std::ostringstream tid;
    tid << std::this_thread::get_id();
    r.thread = tid.str();
    r.start_s = seconds_between(epoch_, start);
    r.end_s = seconds_between(epoch_, end);
    spans_.push_back(std::move(r));
    return spans_.back().id;
  }
  // Reserves an id for a span whose end is not known yet.
  int open(const char* name, int parent) {
    const auto now = Clock::now();
    return add(name, parent, now, now);
  }
  void close(int id) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    if (id >= 0 && std::size_t(id) < spans_.size())
      spans_[std::size_t(id)].end_s = seconds_between(epoch_, now);
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }
  std::string json(const std::string& run_id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (i) out += ",";
      out += obs::json_object({{"run_id", run_id},
                               {"id", s.id},
                               {"parent", s.parent},
                               {"name", s.name},
                               {"thread", s.thread},
                               {"start_s", s.start_s},
                               {"end_s", s.end_s}});
    }
    return out + "]";
  }

 private:
  mutable std::mutex mutex_;
  bool enabled_ = false;
  const Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
};

SpanLog g_spans;

class BenchSpan {
 public:
  BenchSpan(const char* name, int parent) : id_(g_spans.open(name, parent)) {}
  ~BenchSpan() { g_spans.close(id_); }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Workload description (generated by run.py from the workload seed).

struct Workload {
  std::string name;
  std::string kind;  // "vqe_ranks" | "vqe_local" | "dmet"
  std::vector<chem::Atom> atoms;
  int ranks = 1;
  std::size_t threads = 1;
  vqe::VqeOptions vqe;  // the chain's VQE; on the ring, every fragment VQE
};

Workload parse_workload(const obs::Json& j) {
  Workload w;
  w.name = j.at("name").string;
  w.kind = j.at("kind").string;
  for (const obs::Json& a : j.at("atoms").array) {
    chem::Atom atom;
    atom.z = int(a.array.at(0).number);
    for (int k = 0; k < 3; ++k) atom.xyz[k] = a.array.at(k + 1).number;
    w.atoms.push_back(atom);
  }
  w.ranks = int(j.at("ranks").number);
  w.threads = std::size_t(j.at("threads").number);
  w.vqe.mps.max_bond = std::size_t(j.at("max_bond").number);
  w.vqe.optimizer.max_iterations = int(j.at("max_iterations").number);
  if (j.has("distance_window"))
    w.vqe.ansatz.distance_window = int(j.at("distance_window").number);
  check(w.kind == "vqe_ranks" || w.kind == "vqe_local" || w.kind == "dmet",
        "unknown workload kind '" + w.kind + "'");
  check(!w.atoms.empty() && w.ranks >= 1 && w.threads >= 1,
        "bad workload description");
  return w;
}

vqe::VqeOptions chain_vqe_options(const Workload& w, std::size_t threads) {
  vqe::VqeOptions o = w.vqe;
  o.mps.parallel.n_threads = threads;
  return o;
}

// Fragment solves run one per pool thread; each VQE inside is serial, so the
// ring's parallelism is across fragments, not across terms.
vqe::VqeOptions fragment_vqe_options(const Workload& w) {
  return chain_vqe_options(w, 1);
}

dmet::DmetOptions dmet_options(std::size_t threads) {
  dmet::DmetOptions o;  // one-atom fragments, chemical-potential fit on
  o.fit_chemical_potential = true;
  o.parallel.n_threads = threads;
  return o;
}

struct ChainSetup {
  chem::MoIntegrals mo;
  double hf_energy = 0.0;
  int n_occ = 0;
};

// Basis, integrals, RHF and MO transform, each a public call of chem/.
ChainSetup chain_setup(const chem::Molecule& mol, int parent) {
  ChainSetup s;
  chem::BasisSet basis;
  chem::IntegralTables ints;
  {
    BenchSpan span("chem/integrals", parent);
    basis = chem::BasisSet::build(mol, "sto-3g");
    ints = chem::compute_integrals(mol, basis);
  }
  chem::ScfResult scf;
  {
    BenchSpan span("chem/rhf", parent);
    scf = chem::rhf(mol, basis, ints);
  }
  check(scf.converged, "RHF did not converge");
  {
    BenchSpan span("chem/mo_transform", parent);
    s.mo = chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
  }
  s.hf_energy = scf.energy;
  s.n_occ = mol.n_electrons() / 2;
  return s;
}

// ---------------------------------------------------------------------------
// One solve: from the generated molecule to the final energy.

struct FragmentCapture {
  dmet::EmbeddingProblem problem;
  chem::MoIntegrals solver_mo;
};

struct Solve {
  double total_s = 0.0;
  double setup_s = 0.0;
  double solver_s = 0.0;  // wall time of the solver call
  double cpu_s = 0.0;
  double energy = std::numeric_limits<double>::quiet_NaN();
  double hf_energy = std::numeric_limits<double>::quiet_NaN();
  int iterations = 0;
  bool converged = false;
  double electrons = 0.0;
  int target_electrons = 0;
  int mu_iterations = 0;
  std::size_t n_terms = 0;
  std::vector<double> parameters;
  std::vector<double> iteration_gaps_s;  // between optimizer iterations
  std::vector<std::pair<double, double>> fragment_intervals;  // [start, end)
  std::optional<FragmentCapture> fragment;
  double imbalance_ratio = 0.0;
  Counters before, after;
};

// Records optimizer iterations: gaps between consecutive observer calls on
// one thread, plus a bench span per iteration under the span passed to
// begin(). Thread-safe so concurrent fragment solves can share it; begin()
// starts a new sequence on the calling thread.
class IterationClock {
 public:
  void begin(int parent_span) {
    State& st = state();
    st = State{Clock::now(), parent_span, true};
  }
  void tick() {
    const auto now = Clock::now();
    State& st = state();
    g_spans.add("vqe/iteration", st.parent, st.last, now);
    if (!st.first) {
      std::lock_guard<std::mutex> lock(mutex_);
      gaps_.push_back(seconds_between(st.last, now));
    }
    st.first = false;
    st.last = now;
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<double> gaps() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return gaps_;
  }
  int count() const { return count_.load(std::memory_order_relaxed); }

 private:
  struct State {
    Clock::time_point last;
    int parent = -1;
    bool first = true;
  };
  static State& state() {
    thread_local State st;
    return st;
  }
  mutable std::mutex mutex_;
  std::vector<double> gaps_;
  std::atomic<int> count_{0};
};

Solve solve_vqe_ranks(const Workload& w, int ranks, std::size_t threads,
                      int root_span) {
  Solve s;
  const auto t0 = Clock::now();
  const chem::Molecule mol(w.atoms);
  const ChainSetup setup = chain_setup(mol, root_span);
  s.hf_energy = setup.hf_energy;
  const auto t_setup = Clock::now();

  const vqe::VqeOptions opts = chain_vqe_options(w, threads);
  BenchSpan call("vqe/run_vqe_distributed", root_span);
  IterationClock clock;
  vqe::VqeResult result;
  par::World world(ranks);
  world.run([&](par::Comm& comm) {
    vqe::VqeOptions mine = opts;
    if (comm.rank() == 0) {
      clock.begin(call.id());
      mine.optimizer.iteration_observer = [&](int, double, double) {
        clock.tick();
      };
    }
    vqe::VqeResult r =
        vqe::run_vqe_distributed(setup.mo, setup.n_occ, setup.n_occ, mine, comm);
    if (comm.rank() == 0) result = std::move(r);
  });
  const auto t_end = Clock::now();

  s.setup_s = seconds_between(t0, t_setup);
  s.solver_s = seconds_between(t_setup, t_end);
  s.total_s = seconds_between(t0, t_end);
  s.energy = result.energy;
  s.iterations = result.iterations;
  s.converged = result.converged;
  s.n_terms = result.n_pauli_terms;
  s.parameters = result.parameters;
  s.iteration_gaps_s = clock.gaps();
  s.target_electrons = mol.n_electrons();
  s.imbalance_ratio =
      obs::Registry::global().gauge("comm.imbalance_ratio").value();
  return s;
}

Solve solve_vqe_local(const Workload& w, std::size_t threads, int root_span) {
  Solve s;
  const auto t0 = Clock::now();
  const chem::Molecule mol(w.atoms);
  const ChainSetup setup = chain_setup(mol, root_span);
  s.hf_energy = setup.hf_energy;
  const vqe::VqeOptions opts = chain_vqe_options(w, threads);
  pauli::QubitOperator h;
  {
    BenchSpan span("chem/qubit_hamiltonian", root_span);
    h = chem::molecular_qubit_hamiltonian(setup.mo);
  }
  vqe::UccsdAnsatz ansatz;
  {
    BenchSpan span("vqe/build_uccsd", root_span);
    ansatz = vqe::build_uccsd(setup.mo.n_orbitals(), setup.n_occ, setup.n_occ,
                              opts.ansatz);
  }
  const auto t_setup = Clock::now();

  BenchSpan call("vqe/run_vqe_on", root_span);
  IterationClock clock;
  vqe::VqeOptions mine = opts;
  clock.begin(call.id());
  mine.optimizer.iteration_observer = [&](int, double, double) { clock.tick(); };
  const vqe::VqeResult result = vqe::run_vqe_on(h, ansatz, mine);
  const auto t_end = Clock::now();

  s.setup_s = seconds_between(t0, t_setup);
  s.solver_s = seconds_between(t_setup, t_end);
  s.total_s = seconds_between(t0, t_end);
  s.energy = result.energy;
  s.iterations = result.iterations;
  s.converged = result.converged;
  s.n_terms = result.n_pauli_terms;
  s.parameters = result.parameters;
  s.iteration_gaps_s = clock.gaps();
  s.target_electrons = mol.n_electrons();
  return s;
}

Solve solve_dmet(const Workload& w, std::size_t threads, int root_span) {
  Solve s;
  const auto t0 = Clock::now();
  const chem::Molecule mol(w.atoms);

  BenchSpan call("dmet/run_dmet", root_span);
  IterationClock clock;
  vqe::VqeOptions frag = fragment_vqe_options(w);
  frag.optimizer.iteration_observer = [&](int, double, double) { clock.tick(); };
  const dmet::FragmentSolver inner = dmet::make_vqe_solver(frag);

  // Thread-safe wrapper: times every fragment solve and keeps one embedding
  // problem for the layer probes.
  std::mutex mutex;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
  std::optional<FragmentCapture> capture;
  const dmet::FragmentSolver wrapped =
      [&](const dmet::EmbeddingProblem& problem,
          const chem::MoIntegrals& solver_mo) {
        const auto start = Clock::now();
        dmet::FragmentSolution sol;
        {
          BenchSpan span("dmet/fragment_solve", call.id());
          clock.begin(span.id());
          sol = inner(problem, solver_mo);
        }
        const auto end = Clock::now();
        std::lock_guard<std::mutex> lock(mutex);
        intervals.emplace_back(start, end);
        if (!capture) capture = FragmentCapture{problem, solver_mo};
        return sol;
      };
  const dmet::DmetResult r = dmet::run_dmet(mol, dmet_options(threads), wrapped);
  const auto t_end = Clock::now();
  check(!intervals.empty(), "DMET ran no fragment solve");

  Clock::time_point first = intervals.front().first;
  for (const auto& iv : intervals) first = std::min(first, iv.first);
  g_spans.add("dmet/setup", call.id(), t0, first);
  for (const auto& [a, b] : intervals)
    s.fragment_intervals.emplace_back(seconds_between(t0, a),
                                      seconds_between(t0, b));
  s.setup_s = seconds_between(t0, first);
  s.solver_s = seconds_between(t0, t_end);
  s.total_s = seconds_between(t0, t_end);
  s.energy = r.energy;
  s.hf_energy = r.hf_energy;
  s.iterations = clock.count();
  s.converged = r.converged;
  s.electrons = r.total_electrons;
  s.target_electrons = mol.n_electrons();
  s.mu_iterations = r.mu_iterations;
  s.iteration_gaps_s = clock.gaps();
  s.fragment = std::move(capture);
  return s;
}

// Runs one solve with `workers` parallel workers (ranks x threads for the
// distributed chain, pool threads otherwise) and records counter deltas and
// process CPU time around it.
Solve run_solve(const Workload& w, bool serial) {
  const Counters before = read_counters();
  const double cpu0 = cpu_seconds();
  BenchSpan root("bench/solve", -1);
  Solve s;
  if (w.kind == "vqe_ranks")
    s = solve_vqe_ranks(w, serial ? 1 : w.ranks, serial ? 1 : w.threads,
                        root.id());
  else if (w.kind == "vqe_local")
    s = solve_vqe_local(w, serial ? 1 : w.threads, root.id());
  else
    s = solve_dmet(w, serial ? 1 : w.threads, root.id());
  s.cpu_s = cpu_seconds() - cpu0;
  s.before = before;
  s.after = read_counters();
  return s;
}

int workers(const Workload& w) {
  return w.kind == "vqe_ranks" ? w.ranks * int(w.threads) : int(w.threads);
}

// Distinct energy evaluations. A distributed evaluation splits its terms
// over ranks, so count evaluated terms / terms instead of partial calls.
std::uint64_t energy_evaluations(const Workload& w, const Solve& s) {
  if (w.kind == "dmet")
    return delta(s.before, s.after, "vqe.energy_evaluations");
  return s.n_terms == 0
             ? 0
             : delta(s.before, s.after, "vqe.pauli_terms_measured") / s.n_terms;
}

std::uint64_t comm_collectives(const Solve& s) {
  std::uint64_t n = 0;
  for (const char* op : {"comm.bcast_ops", "comm.reduce_ops",
                         "comm.allreduce_ops", "comm.allgather_ops"})
    n += delta(s.before, s.after, op);
  return n;
}

// The per-layer counts a later claim may rest on: they repeat exactly for a
// given workload and seed at any thread count.
std::vector<std::pair<std::string, std::uint64_t>> exact_counts(
    const Workload& w, const Solve& s) {
  return {
      {"sim.two_site_updates", delta(s.before, s.after, "mps.gates")},
      {"sim.transfer_sweeps", delta(s.before, s.after, "mps.transfer_sweeps")},
      {"linalg.svd_calls", delta(s.before, s.after, "la.svd.truncated_calls")},
      {"linalg.svd_sweeps", delta(s.before, s.after, "la.svd.sweeps")},
      {"linalg.flops", delta(s.before, s.after, "work.flops")},
      {"vqe.energy_evaluations", energy_evaluations(w, s)},
      {"parallel.comm_collectives", comm_collectives(s)},
      {"parallel.comm_bytes", delta(s.before, s.after, "comm.bytes")},
      {"dmet.fragment_solves", delta(s.before, s.after, "dmet.fragment_solves")},
  };
}

std::string solve_json(const Workload& w, int index, const Solve& s) {
  std::vector<obs::JsonField> counts;
  for (const auto& [k, v] : exact_counts(w, s)) counts.emplace_back(k, v);
  return obs::json_object(
      {{"solve", index},
       {"ok", true},
       {"time_to_solution_s", s.total_s},
       {"setup_s", s.setup_s},
       {"solver_s", s.solver_s},
       {"energy", s.energy},
       {"hf_energy", s.hf_energy},
       {"iterations", s.iterations},
       {"converged", s.converged},
       {"electrons", s.electrons},
       {"target_electrons", s.target_electrons},
       {"mu_iterations", s.mu_iterations},
       {"counts", obs::JsonValue::raw(obs::json_object(counts))}});
}

void emit(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Modes.

// The ring's check reference is DMET with the exact fragment solver; its
// error metric, like the chains', is measured against FCI of the molecule.
int mode_reference(const Workload& w) {
  const chem::Molecule mol(w.atoms);
  const ChainSetup setup = chain_setup(mol, -1);
  const chem::FciResult fci =
      chem::fci_ground_state(setup.mo, setup.n_occ, setup.n_occ);
  check(fci.converged, "FCI did not converge");
  double e_check = fci.energy;
  if (w.kind == "dmet") {
    const dmet::DmetResult r =
        dmet::run_dmet(mol, dmet_options(w.threads), dmet::make_fci_solver());
    check(r.converged, "DMET with the FCI solver did not converge");
    e_check = r.energy;
  }
  emit(obs::json_object({{"reference", true},
                         {"e_hf", setup.hf_energy},
                         {"e_fci", fci.energy},
                         {"e_check", e_check}}));
  return 0;
}

// Set-up only: everything a solve does before its iterative part begins. The
// ring's set-up runs inside run_dmet, so it is cut off at the first fragment
// solve, the same point solve_dmet measures it to.
double setup_only(const Workload& w) {
  const auto t0 = Clock::now();
  const chem::Molecule mol(w.atoms);
  if (w.kind == "dmet") {
    struct SetupDone {};
    std::atomic<bool> reached{false};
    Clock::time_point first;
    const dmet::FragmentSolver stop =
        [&](const dmet::EmbeddingProblem&,
            const chem::MoIntegrals&) -> dmet::FragmentSolution {
      const auto now = Clock::now();
      if (!reached.exchange(true)) first = now;
      throw SetupDone{};
    };
    try {
      dmet::run_dmet(mol, dmet_options(w.threads), stop);
    } catch (const SetupDone&) {
    }
    check(reached.load(), "DMET set-up ran no fragment solve");
    return seconds_between(t0, first);
  }
  const ChainSetup setup = chain_setup(mol, -1);
  if (w.kind == "vqe_local") {
    const pauli::QubitOperator h = chem::molecular_qubit_hamiltonian(setup.mo);
    const vqe::UccsdAnsatz ansatz =
        vqe::build_uccsd(setup.mo.n_orbitals(), setup.n_occ, setup.n_occ,
                         chain_vqe_options(w, w.threads).ansatz);
    check(h.size() > 0 && ansatz.n_parameters > 0, "empty VQE problem");
  }
  return seconds_between(t0, Clock::now());
}

// `setup_reps` set-up-only repetitions, then whole solves until `seconds`
// have passed, at least `min_solves` of them.
int mode_run(const Workload& w, double seconds, int setup_reps,
             int min_solves) {
  const auto start = Clock::now();
  for (int i = 0; i < setup_reps; ++i) {
    try {
      emit(obs::json_object({{"setup", i}, {"ok", true},
                             {"setup_s", setup_only(w)}}));
    } catch (const std::exception& e) {
      emit(obs::json_object({{"setup", i}, {"ok", false}, {"error", e.what()}}));
    }
  }
  for (int i = 0;
       i < min_solves || seconds_between(start, Clock::now()) < seconds; ++i) {
    try {
      emit(solve_json(w, i, run_solve(w, /*serial=*/false)));
    } catch (const std::exception& e) {
      emit(obs::json_object({{"solve", i}, {"ok", false}, {"error", e.what()}}));
    }
  }
  emit(obs::json_object({{"done", true}, {"peak_rss_kb", peak_rss_kb()}}));
  return 0;
}

// Summed over every profile node called `name` (all paths, all threads).
struct NodeSum {
  std::uint64_t count = 0;
  double total_us = 0.0;
  std::uint64_t self_flops = 0;
};

NodeSum sum_nodes(const std::vector<obs::ProfileNode>& nodes,
                  const std::string& name, const std::string& under = "") {
  NodeSum sum;
  for (const obs::ProfileNode& n : nodes) {
    if (n.name != name) continue;
    if (!under.empty() && n.path.find(under + ";") == std::string::npos)
      continue;
    sum.count += n.count;
    sum.total_us += n.total_us;
    sum.self_flops += n.self_flops;
  }
  return sum;
}

// Time at nodes named `name`, per thread tag.
std::map<std::string, double> per_thread_us(
    const std::vector<obs::ProfileNode>& nodes, const std::string& name) {
  std::map<std::string, double> out;
  for (const obs::ProfileNode& n : nodes)
    if (n.name == name)
      for (const auto& [tag, us] : n.by_thread) out[tag] += us;
  return out;
}

struct LayerProbe {
  double integrals_s = 0.0, rhf_s = 0.0, hamiltonian_s = 0.0;
  double grouping_s = 0.0, compile_s = 0.0;
  int rhf_iterations = 0;
  std::size_t pauli_terms = 0, groups = 0, two_qubit_gates = 0, swaps = 0;
  std::size_t max_bond = 0, memory_bytes = 0;
};

// Times the benchmark's own calls into chem/, pauli/ and circuit/ on the
// workload's inputs (median of `reps`), then replays the solved parameters
// through sim::Mps for the bond dimension and memory they need.
LayerProbe probe_layers(const Workload& w, const Solve& solved, int reps) {
  LayerProbe p;
  const chem::Molecule mol(w.atoms);
  std::vector<double> t_int, t_rhf, t_ham, t_group, t_compile;
  chem::MoIntegrals mo;
  int n_alpha = 0;
  for (int r = 0; r < reps; ++r) {
    auto t = Clock::now();
    const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
    const chem::IntegralTables ints = chem::compute_integrals(mol, basis);
    t_int.push_back(seconds_between(t, Clock::now()));
    t = Clock::now();
    const chem::ScfResult scf = chem::rhf(mol, basis, ints);
    t_rhf.push_back(seconds_between(t, Clock::now()));
    p.rhf_iterations = scf.iterations;
    if (w.kind != "dmet") {
      mo = chem::transform_to_mo(ints, scf.coefficients, scf.nuclear_repulsion);
      n_alpha = mol.n_electrons() / 2;
    }
  }
  vqe::VqeOptions opts = chain_vqe_options(w, w.threads);
  if (w.kind == "dmet") {
    // The ring's Hamiltonian and ansatz are the fragment's, rebuilt inside
    // every fragment solve exactly as make_vqe_solver does.
    check(solved.fragment.has_value(), "no fragment captured");
    const FragmentCapture& f = *solved.fragment;
    const la::RMatrix u =
        dmet::embedding_canonical_orbitals(f.solver_mo, f.problem.n_alpha);
    mo = dmet::rotate_orbitals(f.solver_mo, u);
    n_alpha = f.problem.n_alpha;
    opts = fragment_vqe_options(w);
  }
  pauli::QubitOperator h;
  vqe::UccsdAnsatz ansatz;
  circ::CompiledCircuit compiled;
  for (int r = 0; r < reps; ++r) {
    auto t = Clock::now();
    h = chem::molecular_qubit_hamiltonian(mo);
    t_ham.push_back(seconds_between(t, Clock::now()));
    std::vector<pauli::PauliString> strings;
    for (const auto& [s, c] : h.sorted_terms())
      if (!s.is_identity()) strings.push_back(s);
    p.pauli_terms = strings.size();
    t = Clock::now();
    p.groups = pauli::group_qubitwise_commuting(strings).size();
    t_group.push_back(seconds_between(t, Clock::now()));
    ansatz = vqe::build_uccsd(mo.n_orbitals(), n_alpha, n_alpha, opts.ansatz);
    t = Clock::now();
    compiled = circ::compile_for_mps(ansatz.circuit);
    t_compile.push_back(seconds_between(t, Clock::now()));
  }
  p.integrals_s = median(t_int);
  p.rhf_s = median(t_rhf);
  p.hamiltonian_s = median(t_ham);
  p.grouping_s = median(t_group);
  p.compile_s = median(t_compile);
  p.two_qubit_gates = compiled.gates.two_qubit_gate_count();
  p.swaps = compiled.stats.swaps_materialized;

  std::vector<double> params = solved.parameters;
  if (w.kind == "dmet") params = vqe::run_vqe_on(h, ansatz, opts).parameters;
  sim::Mps state(ansatz.circuit.n_qubits(), opts.mps);
  state.run(ansatz.circuit, params);
  p.max_bond = state.max_bond_dimension();
  p.memory_bytes = state.memory_bytes();
  return p;
}

// Wall time of [0, end) covered by no interval, and the interval union span.
std::pair<double, double> idle_and_span(
    std::vector<std::pair<double, double>> iv) {
  if (iv.empty()) return {0.0, 0.0};
  std::sort(iv.begin(), iv.end());
  const double begin = iv.front().first;
  double covered_to = begin, idle = 0.0, end = begin;
  for (const auto& [a, b] : iv) {
    if (a > covered_to) idle += a - covered_to;
    covered_to = std::max(covered_to, b);
    end = std::max(end, b);
  }
  return {idle, end - begin};
}

int mode_trace(const Workload& w, const std::string& trace_file,
               const std::string& run_id, int probe_reps) {
  // Untraced baselines: the N-worker solve the overhead is measured against
  // and the plain one-worker solve behind parallel.speedup_vs_serial.
  const Solve base = run_solve(w, /*serial=*/false);
  const Solve serial = run_solve(w, /*serial=*/true);

  obs::clear_profile();
  obs::set_profiling(true);
  g_spans.enable(true);
  const Solve traced = run_solve(w, /*serial=*/false);
  g_spans.enable(false);
  obs::set_profiling(false);
  const std::vector<obs::ProfileNode> nodes = obs::profile_snapshot();
  const LayerProbe probe = probe_layers(w, traced, probe_reps);

  const Solve& s = traced;
  const bool dmet = w.kind == "dmet";
  const bool ranks = w.kind == "vqe_ranks";
  auto d = [&](const char* name) { return double(delta(s.before, s.after, name)); };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  const NodeSum prep = sum_nodes(nodes, "mps/run");
  const NodeSum measure = sum_nodes(nodes, "vqe/measure");
  const NodeSum svd = sum_nodes(nodes, "la/svd");
  const NodeSum svd_gemm = sum_nodes(nodes, "la/gemm", "la/svd");
  const NodeSum gemm = sum_nodes(nodes, "la/gemm");
  std::uint64_t spans = 0;
  for (const obs::ProfileNode& n : nodes) spans += n.count;

  const double updates = d("mps.gates");
  const double svd_calls = d("la.svd.truncated_calls");
  const double svd_busy_s = (svd.total_us - svd_gemm.total_us) * 1e-6;
  const double gemm_busy_s = gemm.total_us * 1e-6;
  const double evals = double(energy_evaluations(w, s));

  double comm_wait_s = 0.0;
  if (ranks) {
    const auto optimize = per_thread_us(nodes, "vqe/optimize");
    const auto energy = per_thread_us(nodes, "vqe/energy");
    double sum = 0.0;
    for (const auto& [tag, us] : optimize) {
      const auto e = energy.find(tag);
      sum += us - (e == energy.end() ? 0.0 : e->second);
    }
    comm_wait_s = optimize.empty() ? 0.0 : sum * 1e-6 / double(optimize.size());
  }

  std::vector<double> frag_ms;
  double frag_busy = 0.0;
  for (const auto& [a, b] : s.fragment_intervals) {
    frag_ms.push_back((b - a) * 1e3);
    frag_busy += b - a;
  }
  const auto [serial_gap_s, solve_phase_s] = idle_and_span(s.fragment_intervals);

  const Metrics m = {
      {"chem.integrals_s", probe.integrals_s},
      {"chem.rhf_s", probe.rhf_s},
      {"chem.rhf_iterations", double(probe.rhf_iterations)},
      {"chem.hamiltonian_s", probe.hamiltonian_s},
      {"chem.pauli_terms", double(probe.pauli_terms)},
      {"pauli.grouping_s", probe.grouping_s},
      {"pauli.measurement_groups", double(probe.groups)},
      {"circuit.compile_s", probe.compile_s},
      {"circuit.two_qubit_gates", double(probe.two_qubit_gates)},
      {"circuit.swaps_materialized", double(probe.swaps)},
      {"sim.state_preps", double(prep.count)},
      {"sim.two_site_updates", updates},
      {"sim.prep_busy_s", prep.total_us * 1e-6},
      {"sim.update_us", ratio(prep.total_us, updates)},
      {"sim.measure_busy_s", measure.total_us * 1e-6},
      {"sim.transfer_sweeps", d("mps.transfer_sweeps")},
      {"sim.transfer_site_ops", d("mps.transfer_site_ops")},
      {"sim.max_bond", double(probe.max_bond)},
      {"sim.memory_bytes", double(probe.memory_bytes)},
      {"linalg.svd_calls", svd_calls},
      {"linalg.svd_sweeps", d("la.svd.sweeps")},
      {"linalg.svd_busy_s", svd_busy_s},
      {"linalg.svd_us", ratio(svd_busy_s * 1e6, svd_calls)},
      {"linalg.svd_gflops", ratio(double(svd.self_flops) * 1e-9, svd_busy_s)},
      {"linalg.gemm_calls", double(gemm.count)},
      {"linalg.gemm_busy_s", gemm_busy_s},
      {"linalg.gemm_gflops", ratio(double(gemm.self_flops) * 1e-9, gemm_busy_s)},
      {"linalg.flops", d("work.flops")},
      {"linalg.bytes", d("work.bytes")},
      {"vqe.iterations", double(s.iterations)},
      {"vqe.energy_evaluations", evals},
      {"vqe.evals_per_iteration", ratio(evals, double(s.iterations))},
      {"vqe.eval_ms", ratio((dmet ? frag_busy : s.solver_s) * 1e3, evals)},
      {"vqe.iteration_s", median(s.iteration_gaps_s)},
      {"dmet.mu_evaluations", double(s.mu_iterations)},
      {"dmet.fragment_solves", d("dmet.fragment_solves")},
      {"dmet.fragment_solve_ms_p50", percentile(frag_ms, 50)},
      {"dmet.fragment_solve_ms_p95", percentile(frag_ms, 95)},
      {"dmet.fragment_concurrency", ratio(frag_busy, solve_phase_s)},
      {"dmet.serial_s", serial_gap_s},
      {"parallel.cpu_utilization",
       ratio(base.cpu_s, base.total_s * double(workers(w)))},
      {"parallel.speedup_vs_serial", ratio(serial.total_s, base.total_s)},
      {"parallel.pool_tasks",
       double(delta(base.before, base.after, "pool.tasks_executed"))},
      {"parallel.comm_collectives", double(comm_collectives(s))},
      {"parallel.comm_bytes", d("comm.bytes")},
      {"parallel.comm_wait_s", comm_wait_s},
      {"parallel.rank_imbalance", ranks ? s.imbalance_ratio : 0.0},
      {"parallel.preps_per_evaluation", ratio(double(prep.count), evals)},
      {"obs.trace_overhead", ratio(s.total_s, base.total_s) - 1.0},
      {"obs.spans", double(spans)},
  };

  std::vector<obs::JsonField> fields;
  for (const auto& [k, v] : m) fields.emplace_back(k, v);
  {
    std::ofstream out(trace_file);
    out << "{\"run_id\":\"" << obs::json_escape(run_id)
        << "\",\"workload\":\"" << obs::json_escape(w.name)
        << "\",\"spans\":" << g_spans.json(run_id)
        << ",\"profile\":" << obs::profile_json() << "}\n";
    check(bool(out), "cannot write " + trace_file);
  }
  emit(obs::json_object(
      {{"trace", true},
       {"metrics", obs::JsonValue::raw(obs::json_object(fields))},
       {"untraced", obs::JsonValue::raw(solve_json(w, 0, base))},
       {"serial", obs::JsonValue::raw(solve_json(w, 1, serial))},
       {"traced", obs::JsonValue::raw(solve_json(w, 2, traced))},
       {"bench_spans", g_spans.size()}}));
  return 0;
}

}  // namespace

int main() {
  try {
    const std::string text((std::istreambuf_iterator<char>(std::cin)),
                           std::istreambuf_iterator<char>());
    const obs::Json req = obs::Json::parse(text);
    const std::string mode = req.at("mode").string;
    const Workload w = parse_workload(req.at("workload"));
    emit(obs::json_object(
        {{"host", true},
         {"simd_isa", la::simd::isa_name(la::simd::active_isa())},
         {"build_type", PERFBENCH_BUILD_TYPE}}));
    if (mode == "reference") return mode_reference(w);
    if (mode == "run")
      return mode_run(w, req.at("seconds").number,
                      int(req.at("setup_reps").number),
                      int(req.at("min_solves").number));
    if (mode == "trace")
      return mode_trace(w, req.at("trace_file").string,
                        req.at("run_id").string,
                        int(req.at("probe_reps").number));
    std::fprintf(stderr, "perfbench: unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
