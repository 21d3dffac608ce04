// Recount: re-runs every trial of a matrix through ToolInstance::runTrial
// and classify(), outside the campaign engine, and rebuilds the report the
// program should have written.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "campaign/planner.h"
#include "campaign/tools.h"
#include "matrix.h"
#include "trace.h"

namespace campbench {

struct Recount {
  /// One record per (cell, round), in the order rounds completed — what the
  /// program streams into a checkpoint. Flat matrices have one round.
  std::vector<refine::campaign::CampaignResult> records;
  std::vector<std::size_t> recordCells;  // job index of each record
  /// Per-cell totals in job order (rounds/converged meaningful for plans).
  std::vector<refine::campaign::PlannedCell> cells;
};

/// Draws trials from (seed, app, tool, index) like the program: flat cells
/// run [0, trials); planned cells run the plan's rounds, each round's batch
/// from planNextBatch over the recounted counts so far, until the cell
/// retires. Trials run in chunks (threads x 8 per batch, sorted by target)
/// on per-thread scratch machines; each runTrial is a "vm.trial" span.
Recount recount(
    const Matrix& matrix,
    const std::vector<std::unique_ptr<refine::campaign::ToolInstance>>&
        instances,
    Tracer& tracer);

/// The report refine-campaign writes for this matrix, built from the
/// recount with the program's own report formatters.
std::string expectedReport(const Matrix& matrix, const Recount& recount);

}  // namespace campbench
