// The classical optimizer driving the variational loop: L-BFGS with a
// backtracking Armijo line search, plus the central-difference gradient.
//
// L-BFGS carries its loop state in an explicit OptimizerState rather than
// loop locals, so the checkpoint layer (src/ckpt) can persist a run
// mid-optimization and resume it bit-identically: the state holds everything
// iteration k+1 reads — parameters, the curvature-pair ring, the current
// gradient/energy, and the *global* iteration count and energy history (a
// resumed run continues counting, it does not restart at 0).
#pragma once

#include <functional>
#include <vector>

namespace q2::vqe {

using EnergyFn = std::function<double(const std::vector<double>&)>;
using GradientFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

/// Invoked once per outer optimizer iteration with (iteration, energy,
/// gradient_norm), gradient_norm at the new point. Used by the telemetry
/// layer to stream per-iteration run-report records without coupling the
/// optimizer to it.
using IterationObserver = std::function<void(int, double, double)>;

/// The complete resumable state of an L-BFGS run in flight: serializing it
/// is the checkpoint layer's job, interpreting it is the optimizer's.
struct OptimizerState {
  bool initialized = false;  ///< init evaluation done (energy/history primed)
  bool finished = false;     ///< terminal: converged or iteration budget spent
  bool converged = false;
  int iteration = 0;   ///< completed outer iterations, global across resumes
  double energy = 0.0;  ///< f(parameters) after the last completed iteration
  std::vector<double> parameters;
  std::vector<double> gradient;  ///< grad f at `parameters`
  std::vector<double> history;   ///< energy per iteration, global

  // Curvature-pair ring (most recent last, capacity kLbfgsMemory).
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

/// Throws q2::Error as soon as an energy or a gradient entry is not finite,
/// naming the iteration (0: the starting point) and the first such entry.
OptimizerResult minimize_lbfgs(const EnergyFn& f, const GradientFn& grad,
                               std::vector<double> x0,
                               const OptimizerOptions& options = {});

/// The resumable entry point. A fresh state needs only `parameters` = x0; a
/// state restored from a snapshot continues exactly where it stopped — the
/// interrupted-then-resumed trajectory is bit-identical to an uninterrupted
/// run (all state is carried as exact binary doubles and the
/// energy/gradient callbacks are deterministic).
OptimizerResult minimize_lbfgs_from(const EnergyFn& f, const GradientFn& grad,
                                    OptimizerState& state,
                                    const OptimizerOptions& options = {});

/// Central finite-difference gradient.
std::vector<double> finite_difference_gradient(const EnergyFn& f,
                                               const std::vector<double>& x,
                                               double eps = 1e-5);

}  // namespace q2::vqe
