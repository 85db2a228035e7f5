#include "exp/experiment.hpp"

#include <stdexcept>

namespace bas::exp {

ExperimentResult::ExperimentResult(std::string title, Grid grid,
                                   std::vector<std::string> metric_names,
                                   int replicates)
    : title_(std::move(title)),
      grid_(std::move(grid)),
      metric_names_(std::move(metric_names)),
      replicates_(replicates) {
  cells_.resize(grid_.cell_count());
  for (auto& cell : cells_) {
    cell.metrics.resize(metric_names_.size());
  }
}

std::size_t ExperimentResult::metric_index(const std::string& name) const {
  for (std::size_t i = 0; i < metric_names_.size(); ++i) {
    if (metric_names_[i] == name) {
      return i;
    }
  }
  throw std::out_of_range("unknown metric '" + name + "' in experiment '" +
                          title_ + "'");
}

const util::Accumulator& ExperimentResult::at(std::size_t cell,
                                              std::size_t metric) const {
  return cells_.at(cell).metrics.at(metric);
}

}  // namespace bas::exp
