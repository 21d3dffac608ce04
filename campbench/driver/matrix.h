// The campaign matrix a benchmark workload runs, parsed from the same run
// flags refine-campaign takes, so campbench/run.py passes one argument list
// to both the program and this driver. refine-campaign keeps its flag
// parsing and --protect-suite expansion inside its main translation unit,
// so both are mirrored here; any drift shows up as a report that differs
// from the driver's recount.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/engine.h"
#include "campaign/planner.h"
#include "campaign/spec.h"

namespace campbench {

enum class BaseTool { LLFI, REFINE, PINFI };

struct Matrix {
  /// Canonical job order (apps outer, tools inner), exactly as
  /// refine-campaign's run mode builds it.
  std::vector<refine::campaign::MatrixJob> jobs;
  /// Per job: the paper tool underneath the fault-model spec, and the
  /// resolved fault-injection configuration the tool instance applies.
  std::vector<BaseTool> bases;
  std::vector<refine::fi::FiConfig> configs;
  refine::campaign::CampaignConfig config;  // trials, threads, seed, timeout
  std::optional<refine::campaign::PlanSpec> plan;
  bool protectSuite = false;
};

/// Parses --apps, --tool, --tools, --trials, --plan, --protect-suite,
/// --seed and --threads with refine-campaign's meanings. Throws CheckError
/// on anything else.
Matrix parseMatrix(const std::vector<std::string>& args);

const char* baseToolName(BaseTool base) noexcept;

/// Runs body(task, worker) for every task in [0, tasks) on `threads`
/// threads, each pulling the next task index. The first exception stops
/// further tasks and is rethrown after every thread has joined.
void runParallel(unsigned threads, std::size_t tasks,
                 const std::function<void(std::size_t, unsigned)>& body);

}  // namespace campbench
