#include "matrix.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "apps/apps.h"
#include "campaign/worker.h"
#include "support/check.h"
#include "support/strings.h"

namespace campbench {

using namespace refine;

namespace {

std::vector<std::string> splitList(const std::string& csv) {
  std::vector<std::string> out;
  for (const auto& part : split(csv, ',')) {
    if (!trim(part).empty()) out.push_back(std::string(trim(part)));
  }
  return out;
}

/// The fault-model spec behind a canonical tool key: a spec key parses
/// directly, a named scenario is recovered through its SpecFactory.
campaign::ToolSpec specOf(const std::string& key) {
  try {
    return campaign::parseToolSpec(key);
  } catch (const CheckError&) {
    const auto* factory = campaign::InjectorRegistry::global().find(key);
    const auto* asSpec = dynamic_cast<const campaign::SpecFactory*>(factory);
    RF_CHECK(asSpec != nullptr,
             "tool '" + key + "' is neither a spec nor a spec-backed scenario");
    return asSpec->spec();
  }
}

BaseTool baseOf(const std::string& base) {
  if (base == "LLFI") return BaseTool::LLFI;
  if (base == "REFINE") return BaseTool::REFINE;
  RF_CHECK(base == "PINFI", "unknown base tool '" + base + "'");
  return BaseTool::PINFI;
}

}  // namespace

const char* baseToolName(BaseTool base) noexcept {
  switch (base) {
    case BaseTool::LLFI: return "LLFI";
    case BaseTool::REFINE: return "REFINE";
    case BaseTool::PINFI: return "PINFI";
  }
  return "?";
}

Matrix parseMatrix(const std::vector<std::string>& args) {
  Matrix m;
  std::vector<std::string> apps;
  std::vector<std::string> tools = {"LLFI", "REFINE", "PINFI"};
  bool toolsExplicit = false;
  auto value = [&](std::size_t& i) -> const std::string& {
    RF_CHECK(i + 1 < args.size(), args[i] + " requires a value");
    return args[++i];
  };
  auto number = [&](std::size_t& i, int base) {
    const std::string& flag = args[i];
    const auto parsed = parseU64(value(i), base);
    RF_CHECK(parsed.has_value(), flag + " expects a number");
    return *parsed;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--apps") {
      apps = splitList(value(i));
    } else if (arg == "--tool" || arg == "--tools") {
      if (!toolsExplicit) tools.clear();
      toolsExplicit = true;
      if (arg == "--tool") {
        tools.push_back(std::string(trim(value(i))));
      } else {
        for (auto& t : splitList(value(i))) tools.push_back(t);
      }
    } else if (arg == "--trials") {
      m.config.trials = number(i, 10);
    } else if (arg == "--plan") {
      m.plan = campaign::parsePlanSpec(value(i));
    } else if (arg == "--protect-suite") {
      m.protectSuite = true;
    } else if (arg == "--seed") {
      m.config.baseSeed = number(i, 16);
    } else if (arg == "--threads") {
      m.config.threads = static_cast<unsigned>(number(i, 10));
    } else {
      RF_CHECK(false, "unknown matrix argument '" + arg + "'");
    }
  }
  RF_CHECK(m.config.threads > 0, "--threads is required and positive");
  if (m.plan) m.config.trials = m.plan->maxTrials;

  std::vector<std::string> keys;
  for (const auto& tool : tools) {
    const std::string key = campaign::resolveToolSpec(tool);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  if (m.protectSuite) {
    // The same expansion refine-campaign --protect-suite performs: every
    // model in its four protection variants, under canonical keys.
    std::vector<std::string> expanded;
    for (const auto& key : keys) {
      campaign::ToolSpec spec = specOf(key);
      for (const auto scheme :
           {opt::ProtectScheme::None, opt::ProtectScheme::DWC,
            opt::ProtectScheme::TMR, opt::ProtectScheme::CFCSS}) {
        spec.protect = scheme;
        std::string variant = campaign::resolveToolSpec(spec.canonical());
        if (std::find(expanded.begin(), expanded.end(), variant) ==
            expanded.end()) {
          expanded.push_back(std::move(variant));
        }
      }
    }
    keys = std::move(expanded);
  }
  if (apps.empty()) {
    for (const auto& a : apps::benchmarkApps()) apps.push_back(a.name);
  }
  m.jobs = campaign::buildMatrixJobs(apps, keys);
  for (const auto& job : m.jobs) {
    const campaign::ToolSpec spec = specOf(job.tool);
    m.bases.push_back(baseOf(spec.base));
    m.configs.push_back(spec.apply(job.fiConfig));
  }
  return m;
}

void runParallel(unsigned threads, std::size_t tasks,
                 const std::function<void(std::size_t, unsigned)>& body) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex errorMutex;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t task = next.fetch_add(1);
        if (task >= tasks) return;
        try {
          body(task, w);
        } catch (...) {
          std::scoped_lock lock(errorMutex);
          if (!error) error = std::current_exception();
          failed = true;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace campbench
