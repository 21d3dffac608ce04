#include "oracle.h"

#include <map>
#include <utility>

#include "frontend/compile.h"
#include "ir/interp.h"
#include "opt/protect.h"

namespace campbench {

using namespace refine;

std::vector<std::string> goldenFailures(
    const Matrix& matrix,
    const std::vector<std::unique_ptr<campaign::ToolInstance>>& instances,
    unsigned threads) {
  using Key = std::pair<std::string, opt::ProtectScheme>;
  std::map<Key, std::size_t> keyIndex;  // -> index into keys/sources
  std::vector<Key> keys;
  std::vector<const std::string*> sources;
  for (std::size_t c = 0; c < matrix.jobs.size(); ++c) {
    const Key key{matrix.jobs[c].app, matrix.configs[c].protect};
    if (keyIndex.emplace(key, keys.size()).second) {
      keys.push_back(key);
      sources.push_back(&matrix.jobs[c].source);
    }
  }

  struct Reference {
    ir::InterpResult result;
    std::string error;  // set when the reference itself could not run
  };
  std::vector<Reference> refs(keys.size());
  runParallel(threads, keys.size(), [&](std::size_t k, unsigned) {
    try {
      auto module = fe::compileToIR(*sources[k]);
      opt::applyProtection(*module, keys[k].second);
      refs[k].result = ir::interpret(*module);
    } catch (const std::exception& e) {
      refs[k].error = e.what();
    }
  });

  std::vector<std::string> failures;
  for (std::size_t c = 0; c < matrix.jobs.size(); ++c) {
    const auto& job = matrix.jobs[c];
    const Reference& ref =
        refs[keyIndex.at({job.app, matrix.configs[c].protect})];
    const std::string cell = job.app + " x " + job.tool;
    if (!ref.error.empty()) {
      failures.push_back(cell + ": reference interpreter failed: " +
                         ref.error);
    } else if (ref.result.trapped || ref.result.exitCode != 0) {
      failures.push_back(cell + ": reference interpreter run did not exit "
                                "cleanly");
    } else if (instances[c]->profile().goldenOutput != ref.result.output) {
      failures.push_back(cell + ": golden output differs from the IR "
                                "interpreter's output");
    }
  }
  return failures;
}

}  // namespace campbench
