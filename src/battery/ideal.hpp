#pragma once
// Ideal battery: a fixed bucket of charge, insensitive to the load
// profile. This is the (wrong) assumption early DVS work made; it serves
// as the control model — every scheme extracts identical charge from it.

#include "battery/model.hpp"

namespace bas::bat {

class IdealBattery final : public Battery {
 public:
  /// `capacity_c` total extractable charge in coulombs.
  explicit IdealBattery(double capacity_c);

  std::string name() const override { return "ideal"; }
  bool empty() const override;
  double state_of_charge() const override;
  std::unique_ptr<Battery> fresh_clone() const override;

  double capacity_c() const noexcept { return capacity_c_; }

 protected:
  double do_draw(double current_a, double dt_s) override;
  void do_reset() override;

 private:
  double capacity_c_;
  double remaining_c_;
};

}  // namespace bas::bat
