#include "battery/stochastic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bas::bat {

StochasticBattery::StochasticBattery(StochasticParams params)
    : params_(params), rng_(params.seed) {
  if (!(params_.slot_s > 0.0) || !(params_.quantum_c > 0.0)) {
    throw std::invalid_argument("StochasticBattery: bad parameters");
  }
  if (!(params_.kinetics.capacity_c > 0.0) ||
      !(params_.kinetics.c_fraction > 0.0) ||
      params_.kinetics.c_fraction >= 1.0 || !(params_.kinetics.k_rate > 0.0)) {
    throw std::invalid_argument("StochasticBattery: bad kinetic parameters");
  }
  const double c = params_.kinetics.c_fraction;
  one_minus_c_ = 1.0 - c;
  flow_coeff_ = params_.kinetics.k_rate * c * (1.0 - c);
  do_reset();
}

bool StochasticBattery::empty() const { return dead_; }

double StochasticBattery::state_of_charge() const {
  return (y1_ + y2_) / params_.kinetics.capacity_c;
}

std::unique_ptr<Battery> StochasticBattery::fresh_clone() const {
  return std::make_unique<StochasticBattery>(params_);
}

namespace {

/// Whole quanta moved by one slot's recovery: floor(quanta), plus one
/// more with probability frac(quanta), so E[moved] == quanta. Every
/// slot of the measured traffic has quanta < 1, where floor is +0.0;
/// branching around the floor call lets the predicted path start the
/// next slot without waiting for the divisions that produce `quanta`.
/// `inline` is load-bearing: without it GCC keeps the two call sites
/// out of line, and each call forces the draw's Rng state to memory.
inline double quanta_moved(double quanta, util::Rng& rng) {
  double whole = 0.0;
  if (!(quanta < 1.0)) {
    whole = std::floor(quanta);
  }
  if (rng.bernoulli(quanta - whole)) {
    whole += 1.0;
  }
  return whole;
}

}  // namespace

double StochasticBattery::do_draw(double current_a, double dt_s) {
  const double c = params_.kinetics.c_fraction;
  const double quantum = params_.quantum_c;
  // The cell state lives in locals for the whole draw, so the slot loop
  // keeps it in registers instead of round-tripping through `this`.
  double y1 = y1_;
  double y2 = y2_;
  bool dead = dead_;
  util::Rng rng = rng_;

  double sustained = 0.0;
  double remaining = dt_s;
  while (remaining > 0.0 && !dead) {
    const double dt = std::min(params_.slot_s, remaining);

    // Kinetic drift between the wells for this slot, realized as an
    // integral number of quanta plus a Bernoulli fractional quantum so
    // that E[moved] matches KibamBattery's flow. The closed form's rate
    // constant k' relates to the height-difference flow by a c(1-c)
    // factor: dy1/dt = -I + k' * c * (1-c) * (h2 - h1), with the
    // k'·c·(1-c) product hoisted to the constructor.
    const double h1 = y1 / c;
    const double h2 = y2 / one_minus_c_;
    const double expected_transfer_c = flow_coeff_ * (h2 - h1) * dt;
    double transfer_c = 0.0;
    if (expected_transfer_c > 0.0) {
      const double whole = quanta_moved(expected_transfer_c / quantum, rng);
      transfer_c = std::min(whole * quantum, y2);
    } else if (expected_transfer_c < 0.0) {
      // Available well above the bound well (cannot happen from a full
      // start under discharge, but keep the dynamics symmetric).
      const double whole = quanta_moved(-expected_transfer_c / quantum, rng);
      transfer_c = -std::min(whole * quantum, y1);
    }

    const double demand_c = current_a * dt;
    if (y1 + transfer_c <= demand_c) {
      // Dies within the slot; grant the time the available charge funds.
      const double funded =
          current_a > 0.0 ? (y1 + transfer_c) / current_a : dt;
      y2 -= std::max(0.0, transfer_c);
      y1 = 0.0;
      dead = true;
      sustained += std::min(funded, dt);
    } else {
      y1 += transfer_c - demand_c;
      y2 -= transfer_c;
      y2 = std::max(0.0, y2);
      sustained += dt;
    }
    remaining -= dt;
  }

  y1_ = y1;
  y2_ = y2;
  dead_ = dead;
  rng_ = rng;
  return sustained;
}

void StochasticBattery::do_reset() {
  y1_ = params_.kinetics.c_fraction * params_.kinetics.capacity_c;
  y2_ = (1.0 - params_.kinetics.c_fraction) * params_.kinetics.capacity_c;
  dead_ = false;
  rng_ = util::Rng(params_.seed);
}

}  // namespace bas::bat
