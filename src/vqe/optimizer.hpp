// Classical optimizers driving the variational loop: Adam, L-BFGS (with
// backtracking line search) and SPSA (the shot-frugal optimizer used on real
// hardware), plus gradient helpers (central differences and the parameter-
// shift rule).
//
// Every optimizer carries its loop state in an explicit OptimizerState rather
// than loop locals, so the checkpoint layer (src/ckpt) can persist a run
// mid-optimization and resume it bit-identically: the state holds everything
// iteration k+1 reads — parameters, Adam moments, the L-BFGS curvature-pair
// ring, the current gradient/energy, and the *global* iteration count and
// energy history (a resumed run continues counting, it does not restart at 0).
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"

namespace q2::vqe {

using EnergyFn = std::function<double(const std::vector<double>&)>;
using GradientFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

/// Invoked once per outer optimizer iteration with (iteration, energy,
/// gradient_norm); gradient_norm is negative when the optimizer doesn't
/// evaluate a gradient (SPSA). Used by the telemetry layer to stream
/// per-iteration run-report records without coupling optimizers to it.
using IterationObserver = std::function<void(int, double, double)>;

/// The complete resumable state of an optimization in flight. One struct
/// covers all three methods (the unused blocks stay empty): serializing it is
/// the checkpoint layer's job, interpreting it is the optimizer's.
struct OptimizerState {
  bool initialized = false;  ///< init evaluation done (energy/history primed)
  bool finished = false;     ///< terminal: converged or iteration budget spent
  bool converged = false;
  int iteration = 0;   ///< completed outer iterations, global across resumes
  double energy = 0.0;  ///< f(parameters) after the last completed iteration
  double e_prev = 0.0;  ///< previous-iteration energy (Adam/L-BFGS stopping)
  std::vector<double> parameters;
  std::vector<double> gradient;  ///< L-BFGS: grad f at `parameters`
  std::vector<double> history;   ///< energy per iteration, global

  // Adam first/second moments.
  std::vector<double> adam_m, adam_v;

  // L-BFGS curvature-pair ring (most recent last, capacity kLbfgsMemory).
  std::vector<std::vector<double>> lbfgs_s, lbfgs_y;
  std::vector<double> lbfgs_rho;
};

/// Invoked after every completed optimizer iteration with the full resumable
/// state (after IterationObserver). The checkpoint layer hooks here to write
/// snapshots; it may throw (e.g. injected crashes), which aborts the loop.
using StateObserver = std::function<void(const OptimizerState&)>;

struct OptimizerOptions {
  int max_iterations = 200;
  double gradient_tolerance = 1e-6;
  double energy_tolerance = 1e-10;
  double learning_rate = 0.1;  ///< Adam step size / SPSA a-parameter
  IterationObserver iteration_observer;
  StateObserver state_observer;
};

struct OptimizerResult {
  bool converged = false;
  int iterations = 0;
  double energy = 0.0;
  std::vector<double> parameters;
  std::vector<double> history;  ///< energy per iteration
};

OptimizerResult minimize_adam(const EnergyFn& f, const GradientFn& grad,
                              std::vector<double> x0,
                              const OptimizerOptions& options = {});

/// Throws q2::Error as soon as an energy or a gradient entry is not finite,
/// naming the iteration (0: the starting point) and the first such entry.
OptimizerResult minimize_lbfgs(const EnergyFn& f, const GradientFn& grad,
                               std::vector<double> x0,
                               const OptimizerOptions& options = {});

OptimizerResult minimize_spsa(const EnergyFn& f, std::vector<double> x0,
                              Rng& rng, const OptimizerOptions& options = {});

/// Resumable entry points. A fresh state needs only `parameters` = x0; a
/// state restored from a snapshot continues exactly where it stopped —
/// the interrupted-then-resumed trajectory is bit-identical to an
/// uninterrupted run (all state is carried as exact binary doubles and the
/// energy/gradient callbacks are deterministic).
OptimizerResult minimize_adam_from(const EnergyFn& f, const GradientFn& grad,
                                   OptimizerState& state,
                                   const OptimizerOptions& options = {});

OptimizerResult minimize_lbfgs_from(const EnergyFn& f, const GradientFn& grad,
                                    OptimizerState& state,
                                    const OptimizerOptions& options = {});

/// SPSA additionally consumes `rng`; checkpointing a run must persist the
/// engine stream (Rng::state_string) alongside the state.
OptimizerResult minimize_spsa_from(const EnergyFn& f, OptimizerState& state,
                                   Rng& rng,
                                   const OptimizerOptions& options = {});

/// Central finite-difference gradient.
std::vector<double> finite_difference_gradient(const EnergyFn& f,
                                               const std::vector<double>& x,
                                               double eps = 1e-5);

}  // namespace q2::vqe
