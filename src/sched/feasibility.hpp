#pragma once
// Feasibility check for out-of-EDF-order execution (paper Algorithm 2).
//
// BAS-2 may run a ready task from any released graph, not only the one
// with the most imminent deadline. Running a task whose graph sits at
// position p of the EDF order can only jeopardize the p earlier
// deadlines, so p prefix conditions are checked: for every graph j ahead
// of the candidate's graph, the worst-case work of graphs 1..j plus the
// candidate's own wc must fit before Dj at the current fref. Using fref
// (not fmax) in the check guarantees we are never forced to raise the
// frequency later even if everything takes its worst case — preserving
// the locally non-increasing profile.
//
// Note on the paper's pseudocode: as printed it resets sumWC inside the
// loop, making the accumulator dead; we implement the evidently intended
// prefix sum (see EXPERIMENTS.md, "Substitutions").

#include <span>

#include "dvs/policy.hpp"

namespace bas::sched {

/// `edf_sorted` must hold the released, incomplete graph instances in
/// EDF order (ascending absolute deadline). `candidate_pos` is the index
/// of the candidate's own graph in that array. Returns true when running
/// the candidate next (for up to `candidate_wc_cycles`) cannot violate
/// any earlier deadline at frequency `fref_hz`.
bool feasibility_check(std::span<const dvs::GraphStatus> edf_sorted,
                       int candidate_pos, double candidate_wc_cycles,
                       double fref_hz, double now) noexcept;

/// The same check reading the EDF order through an index list:
/// `statuses` is addressed by graph id and `edf_order` holds the ids in
/// ascending-deadline order. Lets the simulator's hot loop skip
/// materializing an EDF-sorted copy of the statuses each step; both
/// overloads run the same internal prefix fold (one template, two
/// accessors), so the folds cannot drift apart.
bool feasibility_check(std::span<const dvs::GraphStatus> statuses,
                       std::span<const int> edf_order, int candidate_pos,
                       double candidate_wc_cycles, double fref_hz,
                       double now) noexcept;

}  // namespace bas::sched
