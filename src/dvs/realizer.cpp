#include "dvs/realizer.hpp"

#include <algorithm>

namespace bas::dvs {

FreqPlan realize(const Processor& proc, double fref_hz) {
  FreqPlan plan;
  if (proc.continuous()) {
    const double f =
        std::clamp(fref_hz, 1e-9 * proc.fmax_hz(), proc.fmax_hz());
    const OperatingPoint op{f, proc.voltage_at(f)};
    plan.lo = op;
    plan.hi = op;
    plan.hi_fraction = 1.0;
    plan.effective_freq_hz = f;
    return plan;
  }

  const auto& pts = proc.points();
  if (fref_hz <= pts.front().freq_hz) {
    plan.lo = pts.front();
    plan.hi = pts.front();
    plan.hi_fraction = 1.0;
    plan.effective_freq_hz = pts.front().freq_hz;
    return plan;
  }
  if (fref_hz >= pts.back().freq_hz) {
    plan.lo = pts.back();
    plan.hi = pts.back();
    plan.hi_fraction = 1.0;
    plan.effective_freq_hz = pts.back().freq_hz;
    return plan;
  }
  // Find adjacent pair lo < fref <= hi.
  std::size_t hi_idx = 1;
  while (pts[hi_idx].freq_hz < fref_hz) {
    ++hi_idx;
  }
  plan.lo = pts[hi_idx - 1];
  plan.hi = pts[hi_idx];
  // alpha * f_hi + (1 - alpha) * f_lo = fref
  plan.hi_fraction =
      (fref_hz - plan.lo.freq_hz) / (plan.hi.freq_hz - plan.lo.freq_hz);
  plan.effective_freq_hz = fref_hz;
  return plan;
}

double plan_core_power_w(const Processor& proc, const FreqPlan& plan) {
  return plan.hi_fraction * proc.core_power_w(plan.hi) +
         (1.0 - plan.hi_fraction) * proc.core_power_w(plan.lo);
}

}  // namespace bas::dvs
