#include "battery/ideal.hpp"

#include <stdexcept>

namespace bas::bat {

IdealBattery::IdealBattery(double capacity_c)
    : capacity_c_(capacity_c), remaining_c_(capacity_c) {
  if (!(capacity_c > 0.0)) {
    throw std::invalid_argument("IdealBattery: capacity must be positive");
  }
}

bool IdealBattery::empty() const { return remaining_c_ <= 0.0; }

double IdealBattery::state_of_charge() const {
  return remaining_c_ / capacity_c_;
}

std::unique_ptr<Battery> IdealBattery::fresh_clone() const {
  return std::make_unique<IdealBattery>(capacity_c_);
}

double IdealBattery::do_draw(double current_a, double dt_s) {
  if (current_a <= 0.0) {
    return dt_s;  // idle costs nothing and recovers nothing
  }
  const double needed_c = current_a * dt_s;
  if (needed_c <= remaining_c_) {
    remaining_c_ -= needed_c;
    return dt_s;
  }
  const double sustained = remaining_c_ / current_a;
  remaining_c_ = 0.0;
  return sustained;
}

void IdealBattery::do_reset() { remaining_c_ = capacity_c_; }

}  // namespace bas::bat
