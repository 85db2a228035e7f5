#include "battery/diffusion.hpp"

#include <cmath>
#include <stdexcept>

// Element-wise per-term loops (no reductions, no libm calls) are safe to
// hand to the vectorizer: SIMD add/mul/div are IEEE-identical lane for
// lane, so the pragma cannot move a bit. Reduction loops (the sigma
// accumulations) and the exp fill stay scalar — a simd reduction would
// reassociate the sum, and an omp-simd'd std::exp loop could bind to a
// vector libm with different rounding; both would break the
// byte-identity contract.
#if defined(BAS_OPENMP_SIMD)
#define BAS_SIMD _Pragma("omp simd")
#else
#define BAS_SIMD
#endif

namespace bas::bat {

DiffusionParams DiffusionParams::paper_aaa_nimh() {
  DiffusionParams p;
  p.alpha_c = to_coulombs(2000.0);
  p.beta_squared = 4.0e-3;
  p.series_terms = 10;
  return p;
}

DiffusionBattery::DiffusionBattery(DiffusionParams params) : params_(params) {
  if (!(params_.alpha_c > 0.0) || !(params_.beta_squared > 0.0) ||
      params_.series_terms < 1) {
    throw std::invalid_argument("DiffusionBattery: bad parameters");
  }
  terms_ = static_cast<std::size_t>(params_.series_terms);
  soa_.assign(4 * terms_, 0.0);
  double* r = soa_.data();
  for (int m = 1; m <= params_.series_terms; ++m) {
    // Same expression the per-call formulas evaluated, so the table
    // holds bit-identical values.
    r[static_cast<std::size_t>(m - 1)] = params_.beta_squared * m * m;
  }
}

bool DiffusionBattery::empty() const { return dead_; }

double DiffusionBattery::unavailable_c() const {
  const double* s = s_lane();
  double total = 0.0;
  for (std::size_t i = 0; i < terms_; ++i) {
    total += s[i];
  }
  return 2.0 * total;
}

double DiffusionBattery::apparent_charge_c() const {
  return drawn_c_ + unavailable_c();
}

double DiffusionBattery::state_of_charge() const {
  // Charge physically left in the cell, ignoring the transient term.
  return std::max(0.0, 1.0 - drawn_c_ / params_.alpha_c);
}

std::unique_ptr<Battery> DiffusionBattery::fresh_clone() const {
  return std::make_unique<DiffusionBattery>(params_);
}

void DiffusionBattery::fill_decay(double t) const {
  if (t == decay_t_) {
    ++kc_.decay_hits;
    return;
  }
  ++kc_.decay_misses;
  ++kc_.exp_sweeps;
  kc_.exp_calls += static_cast<std::uint64_t>(terms_);
  const double* r = rates();
  double* d = decay();
  for (std::size_t i = 0; i < terms_; ++i) {
    d[i] = std::exp(-r[i] * t);
  }
  decay_t_ = t;
}

void DiffusionBattery::fill_terms(double current_a, double t) const {
  fill_decay(t);
  if (t == gain_t_ && current_a == gain_current_a_) {
    ++kc_.gain_hits;
    return;
  }
  ++kc_.gain_misses;
  const double* r = rates();
  const double* d = decay();
  double* g = gain();
  BAS_SIMD
  for (std::size_t i = 0; i < terms_; ++i) {
    // The exact forcing subexpression of the original formulas:
    // (current · (1 − decay)) / rate, association preserved.
    g[i] = current_a * (1.0 - d[i]) / r[i];
  }
  gain_t_ = t;
  gain_current_a_ = current_a;
}

double DiffusionBattery::sigma_after_c(double current_a, double t) const {
  fill_terms(current_a, t);
  const double* d = decay();
  const double* g = gain();
  const double* s = s_lane();
  double sigma = drawn_c_ + current_a * t;
  for (std::size_t i = 0; i < terms_; ++i) {
    sigma += 2.0 * (s[i] * d[i] + g[i]);
  }
  return sigma;
}

void DiffusionBattery::advance(double current_a, double t) {
  fill_terms(current_a, t);
  drawn_c_ += current_a * t;
  const double* d = decay();
  const double* g = gain();
  double* s = s_lane();
  BAS_SIMD
  for (std::size_t i = 0; i < terms_; ++i) {
    s[i] = s[i] * d[i] + g[i];
  }
}

double DiffusionBattery::do_draw(double current_a, double dt_s) {
  if (sigma_after_c(current_a, dt_s) < params_.alpha_c) {
    advance(current_a, dt_s);
    return dt_s;
  }
  // Cutoff inside the segment. While current flows, sigma is strictly
  // increasing in t, so bisection finds the crossing. Every probe at a
  // repeated t rides the t-keyed decay memo (fill_decay).
  double lo = 0.0;
  double hi = dt_s;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (sigma_after_c(current_a, mid) < params_.alpha_c) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  advance(current_a, lo);
  dead_ = true;
  return lo;
}

void DiffusionBattery::do_reset() {
  double* s = s_lane();
  for (std::size_t i = 0; i < terms_; ++i) {
    s[i] = 0.0;
  }
  drawn_c_ = 0.0;
  dead_ = false;
}

}  // namespace bas::bat
