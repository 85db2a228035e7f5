#include "battery/model.hpp"

#include <stdexcept>

namespace bas::bat {

double Battery::draw(double current_a, double dt_s) {
  if (current_a < 0.0 || dt_s < 0.0) {
    throw std::invalid_argument("Battery::draw: negative current or time");
  }
  if (dt_s == 0.0 || empty()) {
    return 0.0;
  }
  const double sustained = do_draw(current_a, dt_s);
  delivered_c_ += current_a * sustained;
  alive_s_ += sustained;
  return sustained;
}

void Battery::reset() {
  do_reset();
  kc_.clear();
  delivered_c_ = 0.0;
  alive_s_ = 0.0;
}

}  // namespace bas::bat
