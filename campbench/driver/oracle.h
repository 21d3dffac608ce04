// Correctness oracles that share no code with the backend or the VM.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "campaign/tools.h"
#include "matrix.h"

namespace campbench {

/// Checks every cell's golden output (ToolInstance::profile) against the
/// reference IR interpreter run on the app's unoptimized IR, with the cell's
/// protection pass applied for protected cells. Returns one message per
/// failing cell; empty when all agree. Interpretations are shared between
/// cells with the same (app, scheme) and run on `threads` threads.
std::vector<std::string> goldenFailures(
    const Matrix& matrix,
    const std::vector<std::unique_ptr<refine::campaign::ToolInstance>>&
        instances,
    unsigned threads);

}  // namespace campbench
