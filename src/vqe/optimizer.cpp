#include "vqe/optimizer.hpp"

#include <cmath>
#include <string>

#include "common/types.hpp"

namespace q2::vqe {
namespace {

constexpr std::size_t kLbfgsMemory = 10;
// The first step along steepest descent after a direction lost descent.
constexpr double kSteepestDescentStep = 0.1;

double nrm2(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

OptimizerResult result_from(const OptimizerState& state) {
  OptimizerResult r;
  r.converged = state.converged;
  r.iterations = state.iteration;
  r.parameters = state.parameters;
  r.history = state.history;
  r.energy = state.history.empty() ? state.energy : state.history.back();
  return r;
}

// Fires the per-iteration observers in a fixed order: telemetry first, then
// the (possibly throwing) checkpoint hook.
void notify(const OptimizerOptions& options, const OptimizerState& state,
            int it, double e, double gnorm, bool report_iteration) {
  if (report_iteration && options.iteration_observer)
    options.iteration_observer(it, e, gnorm);
  if (options.state_observer) options.state_observer(state);
}

// A NaN energy fails every Armijo test and a NaN gradient poisons the
// curvature pairs, so L-BFGS checks each value as it arrives and throws,
// naming the iteration (0 for the starting point).
double finite_energy(const EnergyFn& f, const std::vector<double>& x,
                     int iteration) {
  const double e = f(x);
  if (!std::isfinite(e))
    throw Error("lbfgs: iteration " + std::to_string(iteration) +
                ": the energy is not finite (" + std::to_string(e) + ")");
  return e;
}

std::vector<double> finite_gradient(const GradientFn& grad,
                                    const std::vector<double>& x,
                                    int iteration) {
  std::vector<double> g = grad(x);
  for (std::size_t k = 0; k < g.size(); ++k)
    if (!std::isfinite(g[k]))
      throw Error("lbfgs: iteration " + std::to_string(iteration) +
                  ": gradient entry " + std::to_string(k) +
                  " is not finite (" + std::to_string(g[k]) + ")");
  return g;
}

void init_lbfgs(const EnergyFn& f, const GradientFn& grad,
                OptimizerState& state) {
  state.energy = finite_energy(f, state.parameters, 0);
  state.gradient = finite_gradient(grad, state.parameters, 0);
  state.history.assign(1, state.energy);
  state.initialized = true;
}

void step_lbfgs(const EnergyFn& f, const GradientFn& grad,
                OptimizerState& state, const OptimizerOptions& options) {
  const std::size_t n = state.parameters.size();
  // Stopping on the gradient takes no step, so it counts no iteration.
  if (nrm2(state.gradient) < options.gradient_tolerance) {
    state.converged = state.finished = true;
    notify(options, state, state.iteration, state.energy,
           nrm2(state.gradient), false);
    return;
  }
  const int it = ++state.iteration;

  // Two-loop recursion for the search direction d = -H g.
  const std::vector<double>& g = state.gradient;
  std::vector<double> q = g;
  std::vector<double> alpha(state.lbfgs_s.size());
  for (std::size_t i = state.lbfgs_s.size(); i-- > 0;) {
    alpha[i] = state.lbfgs_rho[i] * dot(state.lbfgs_s[i], q);
    for (std::size_t k = 0; k < n; ++k) q[k] -= alpha[i] * state.lbfgs_y[i][k];
  }
  double gamma = 1.0;
  if (!state.lbfgs_s.empty()) {
    const auto& s = state.lbfgs_s.back();
    const auto& y = state.lbfgs_y.back();
    const double yy = dot(y, y);
    if (yy > 0) gamma = dot(s, y) / yy;
  }
  for (auto& x : q) x *= gamma;
  for (std::size_t i = 0; i < state.lbfgs_s.size(); ++i) {
    const double beta = state.lbfgs_rho[i] * dot(state.lbfgs_y[i], q);
    for (std::size_t k = 0; k < n; ++k)
      q[k] += (alpha[i] - beta) * state.lbfgs_s[i][k];
  }
  std::vector<double> d(n);
  for (std::size_t k = 0; k < n; ++k) d[k] = -q[k];

  // Backtracking Armijo line search.
  double step = 1.0;
  const double slope = dot(g, d);
  if (slope >= 0) {
    // Direction lost descent; reset to steepest descent.
    for (std::size_t k = 0; k < n; ++k) d[k] = -g[k];
    state.lbfgs_s.clear();
    state.lbfgs_y.clear();
    state.lbfgs_rho.clear();
    step = kSteepestDescentStep;
  }
  std::vector<double> x_new(n);
  double e_new = state.energy;
  for (int ls = 0; ls < 40; ++ls) {
    for (std::size_t k = 0; k < n; ++k)
      x_new[k] = state.parameters[k] + step * d[k];
    e_new = finite_energy(f, x_new, it);
    if (e_new <= state.energy + 1e-4 * step * dot(g, d)) break;
    step *= 0.5;
  }

  const std::vector<double> g_new = finite_gradient(grad, x_new, it);
  std::vector<double> s(n), y(n);
  for (std::size_t k = 0; k < n; ++k) {
    s[k] = x_new[k] - state.parameters[k];
    y[k] = g_new[k] - g[k];
  }
  const double sy = dot(s, y);
  if (sy > 1e-12) {
    state.lbfgs_s.push_back(std::move(s));
    state.lbfgs_y.push_back(std::move(y));
    state.lbfgs_rho.push_back(1.0 / sy);
    if (state.lbfgs_s.size() > kLbfgsMemory) {
      state.lbfgs_s.erase(state.lbfgs_s.begin());
      state.lbfgs_y.erase(state.lbfgs_y.begin());
      state.lbfgs_rho.erase(state.lbfgs_rho.begin());
    }
  }

  const double e_prev = state.energy;
  state.parameters = x_new;
  state.gradient = g_new;
  state.energy = e_new;
  state.history.push_back(e_new);
  if (std::abs(e_new - e_prev) < options.energy_tolerance)
    state.converged = state.finished = true;
  if (it >= options.max_iterations) state.finished = true;
  notify(options, state, it, e_new, nrm2(state.gradient), true);
}

}  // namespace

OptimizerResult minimize_lbfgs_from(const EnergyFn& f, const GradientFn& grad,
                                    OptimizerState& state,
                                    const OptimizerOptions& options) {
  if (!state.initialized) init_lbfgs(f, grad, state);
  while (!state.finished && state.iteration < options.max_iterations)
    step_lbfgs(f, grad, state, options);
  return result_from(state);
}

OptimizerResult minimize_lbfgs(const EnergyFn& f, const GradientFn& grad,
                               std::vector<double> x0,
                               const OptimizerOptions& options) {
  OptimizerState state;
  state.parameters = std::move(x0);
  return minimize_lbfgs_from(f, grad, state, options);
}

std::vector<double> finite_difference_gradient(const EnergyFn& f,
                                               const std::vector<double>& x,
                                               double eps) {
  std::vector<double> g(x.size());
  std::vector<double> xp = x;
  for (std::size_t k = 0; k < x.size(); ++k) {
    const double orig = xp[k];
    xp[k] = orig + eps;
    const double ep = f(xp);
    xp[k] = orig - eps;
    const double em = f(xp);
    xp[k] = orig;
    g[k] = (ep - em) / (2 * eps);
  }
  return g;
}

}  // namespace q2::vqe
