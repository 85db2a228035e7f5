#pragma once
// Battery model interface (paper §3).
//
// All models consume a piecewise-constant current profile through
// draw(current, dt) and report when the cell can no longer sustain the
// load ("discharged" — which, for the non-ideal models, can happen while
// charge is still trapped inside the cell; that unextracted charge is
// exactly what battery-aware scheduling recovers).
//
// draw() is the one state-advance entry point: each kernel implements
// it once, as an exact closed-form step over a constant-current
// segment (do_draw). The simulator's battery merge window calls the
// same draw() with a window's charge-equivalent mean current; the
// merging is the approximation, not the kernel step.
//
// Accounting (delivered charge, alive time) is centralized here so every
// model reports the two quantities Table 2 compares: charge delivered
// (mAh) and battery lifetime.

#include <memory>
#include <string>

#include "battery/kernel_counters.hpp"

namespace bas::bat {

/// Coulombs per mAh.
inline constexpr double kCoulombsPerMah = 3.6;

inline constexpr double to_mah(double coulombs) {
  return coulombs / kCoulombsPerMah;
}
inline constexpr double to_coulombs(double mah) {
  return mah * kCoulombsPerMah;
}

class Battery {
 public:
  virtual ~Battery() = default;

  virtual std::string name() const = 0;

  /// Draws `current_a` for `dt_s` seconds (current_a >= 0, dt_s >= 0).
  /// Returns the duration actually sustained: dt_s if the cell survived
  /// the whole interval, else the time at which it hit cutoff. Calling
  /// draw on an empty battery returns 0.
  double draw(double current_a, double dt_s);

  /// Per-kernel cache/work counters (cleared by reset()).
  const KernelCounters& kernel_counters() const noexcept { return kc_; }

  virtual bool empty() const = 0;

  /// Fraction of *total* stored charge remaining, in [0, 1]. Note that a
  /// battery may be empty() with state_of_charge() > 0 — the trapped
  /// charge phenomenon.
  virtual double state_of_charge() const = 0;

  /// Deep copy preserving parameters but with reset state.
  virtual std::unique_ptr<Battery> fresh_clone() const = 0;

  /// Restores the fully-charged initial state and clears accounting.
  void reset();

  /// Total charge delivered to the load so far (C).
  double charge_delivered_c() const noexcept { return delivered_c_; }
  double charge_delivered_mah() const noexcept { return to_mah(delivered_c_); }

  /// Wall-clock time survived under all draws so far (s). Idle time
  /// (zero current) counts: recovery happens while alive.
  double time_alive_s() const noexcept { return alive_s_; }

 protected:
  /// Model-specific state update over one constant-current segment;
  /// returns the sustained duration.
  virtual double do_draw(double current_a, double dt_s) = 0;
  virtual void do_reset() = 0;

  /// Incremented by the kernels; mutable so const memo fills can count
  /// their hits.
  mutable KernelCounters kc_;

 private:
  double delivered_c_ = 0.0;
  double alive_s_ = 0.0;
};

}  // namespace bas::bat
