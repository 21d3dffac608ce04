// campbench-driver: the in-process half of the campaign benchmark
// (campbench/run.py is the other half, and runs refine-campaign itself).
//
//   campbench-driver check --reps K --work DIR -- MATRIX-ARGS
//       Times CampaignEngine::buildInstances over the whole matrix K times
//       after one untimed warm-up (setup_s), checks every golden output
//       against the IR interpreter, recounts every trial and writes the
//       report the program should have written to DIR/expected.csv, plus
//       DIR/check.json.
//   campbench-driver trace --work DIR -- MATRIX-ARGS
//       Runs the matrix in process twice, untraced then traced, calling
//       each layer's public functions itself: fe::compileToIR,
//       opt::optimize, opt::applyProtection, fi::applyLlfiPass, the REFINE
//       pass through backend::compileBackend's instrumenter hook, fi::Pinfi,
//       vm::DecodedProgram, vm::JitProgram::entry, the registry's tool
//       instance, ToolInstance::profile/runTrial and CheckpointStore::append.
//       Writes DIR/spans.tsv, DIR/cells.tsv, DIR/expected.csv and
//       DIR/trace.json.
//   campbench-driver relay --target-port P --events FILE
//       Frame relay to 127.0.0.1:P; prints "relay port N", relays until
//       SIGTERM or SIGINT, then writes every frame event to FILE.
//   campbench-driver fingerprint
//       Prints the compiler and build type as JSON.
//
// MATRIX-ARGS are refine-campaign's run flags (--apps, --tool, --trials,
// --plan, --protect-suite, --seed, --threads); see driver/matrix.h.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "backend/compile.h"
#include "campaign/persist.h"
#include "campaign/registry.h"
#include "fi/llfi_pass.h"
#include "fi/pinfi.h"
#include "fi/refine_pass.h"
#include "frontend/compile.h"
#include "matrix.h"
#include "opt/passes.h"
#include "opt/protect.h"
#include "oracle.h"
#include "recount.h"
#include "relay.h"
#include "support/check.h"
#include "support/strings.h"
#include "trace.h"
#include "vm/decoded.h"
#include "vm/jit.h"

namespace {

using namespace refine;
using namespace campbench;
using Instances = std::vector<std::unique_ptr<campaign::ToolInstance>>;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string jsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonStrings(const std::vector<std::string>& items) {
  std::vector<std::string> quoted;
  for (const auto& item : items) quoted.push_back(jsonString(item));
  return "[" + join(quoted, ", ") + "]";
}

std::string jsonNumbers(const std::vector<double>& items) {
  std::vector<std::string> parts;
  for (const double x : items) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", x);
    parts.push_back(buf);
  }
  return "[" + join(parts, ", ") + "]";
}

std::uint64_t irInstructions(const ir::Module& module) {
  std::uint64_t n = 0;
  for (const auto& fn : module.functions()) {
    for (const auto& block : fn->blocks()) n += block->instructions().size();
  }
  return n;
}

/// Builds one cell the way the tool instance does, one layer call at a
/// time, then builds and profiles the real instance. The replica exists only
/// to time and count the layers; the campaign runs on the real instance.
void buildCellTraced(Tracer& tracer, unsigned w, const Matrix& m,
                     std::size_t c,
                     std::unique_ptr<campaign::ToolInstance>& instance) {
  const auto cell = static_cast<std::uint32_t>(c);
  const campaign::MatrixJob& job = m.jobs[c];
  const fi::FiConfig& config = m.configs[c];
  ScopedSpan cellSpan(tracer, w, "campaign.build_cell", cell);
  {
    std::unique_ptr<ir::Module> module;
    {
      ScopedSpan span(tracer, w, "frontend.compile", cell);
      module = fe::compileToIR(job.source);
      span.count(0, irInstructions(*module));
    }
    {
      ScopedSpan span(tracer, w, "opt.optimize", cell);
      opt::optimize(*module, opt::OptLevel::O2);
      span.count(0, irInstructions(*module));
    }
    {
      ScopedSpan span(tracer, w, "opt.protect", cell);
      span.count(0, irInstructions(*module));
      opt::applyProtection(*module, config.protect);
      span.count(1, irInstructions(*module));
    }
    backend::CodegenResult code;
    switch (m.bases[c]) {
      case BaseTool::LLFI: {
        {
          ScopedSpan span(tracer, w, "fi.instrument", cell);
          span.count(0, fi::applyLlfiPass(*module, config).staticTargets);
        }
        ScopedSpan span(tracer, w, "backend.codegen", cell);
        code = backend::compileBackend(*module);
        span.count(0, code.program.code.size());
        break;
      }
      case BaseTool::REFINE: {
        ScopedSpan span(tracer, w, "backend.codegen", cell);
        code = backend::compileBackend(
            *module, [&](backend::MachineModule& mm) {
              ScopedSpan hook(tracer, w, "fi.instrument", cell);
              hook.count(0, fi::applyRefinePass(mm, config).staticSites);
            });
        span.count(0, code.program.code.size());
        break;
      }
      case BaseTool::PINFI: {
        {
          ScopedSpan span(tracer, w, "backend.codegen", cell);
          code = backend::compileBackend(*module);
          span.count(0, code.program.code.size());
        }
        // PINFI's instrumentation time: target classification plus its own
        // predecode of the uninstrumented binary.
        ScopedSpan span(tracer, w, "fi.instrument", cell);
        const fi::Pinfi pinfi(code.program, config);
        span.count(0, pinfi.staticTargets());
        break;
      }
    }
    std::optional<vm::DecodedProgram> decoded;
    {
      ScopedSpan span(tracer, w, "vm.predecode", cell);
      decoded.emplace(code.program);
      span.count(0, decoded->size());
    }
    const vm::JitProgram jit(*decoded);
    ScopedSpan span(tracer, w, "vm.jit_compile", cell);
    span.count(0, jit.entry().enter != nullptr ? 1 : 0);
  }
  {
    ScopedSpan span(tracer, w, "campaign.create_instance", cell);
    instance = campaign::InjectorRegistry::global()
                   .get(job.tool)
                   .create(job.source, job.fiConfig);
  }
  ScopedSpan span(tracer, w, "vm.profile", cell);
  const auto& profile = instance->profile();
  std::uint64_t bytes = 0;
  for (const auto& snap : instance->snapshots().snapshots()) {
    bytes += snap.memoryBytes();
  }
  span.count(0, instance->snapshots().size());
  span.count(1, bytes);
  span.count(2, profile.instrCount);
  span.count(3, profile.dynamicTargets);
}

struct Args {
  std::string mode;
  std::string work;
  unsigned reps = 5;
  std::uint16_t targetPort = 0;
  std::string events;
  std::vector<std::string> matrix;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  RF_CHECK(argc >= 2, "usage: campbench-driver check|trace|relay|fingerprint");
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string {
      RF_CHECK(i + 1 < argc, std::string(arg) + " requires a value");
      return argv[++i];
    };
    if (arg == "--") {
      args.matrix.assign(argv + i + 1, argv + argc);
      break;
    } else if (arg == "--work") {
      args.work = value();
    } else if (arg == "--reps") {
      const auto reps = parseU64(value());
      RF_CHECK(reps && *reps > 0 && *reps < 1000, "--reps expects 1..999");
      args.reps = static_cast<unsigned>(*reps);
    } else if (arg == "--target-port") {
      const auto port = parseU64(value());
      RF_CHECK(port && *port > 0 && *port < 65536, "bad --target-port");
      args.targetPort = static_cast<std::uint16_t>(*port);
    } else if (arg == "--events") {
      args.events = value();
    } else {
      RF_CHECK(false, "unknown argument '" + std::string(arg) + "'");
    }
  }
  return args;
}

int checkMode(const Args& args) {
  const Matrix m = parseMatrix(args.matrix);
  std::vector<double> setup;
  Instances instances;
  // Repetition 0 is an untimed warm-up (allocator arenas, page faults).
  for (unsigned r = 0; r <= args.reps; ++r) {
    instances.clear();  // only one matrix of snapshot chains alive at once
    campaign::CampaignEngine engine(m.config);
    const auto start = std::chrono::steady_clock::now();
    instances = engine.buildInstances(m.jobs);
    if (r > 0) setup.push_back(secondsSince(start));
  }
  const auto golden = goldenFailures(m, instances, m.config.threads);
  Tracer off(false, m.config.threads);
  const Recount counts = recount(m, instances, off);
  writeFile(args.work + "/expected.csv", expectedReport(m, counts));
  writeFile(args.work + "/check.json",
            "{\"setup_s\": " + jsonNumbers(setup) +
                ", \"cells\": " + std::to_string(m.jobs.size()) +
                ", \"golden_failures\": " + jsonStrings(golden) + "}\n");
  return 0;
}

int traceMode(const Args& args) {
  const Matrix m = parseMatrix(args.matrix);
  const unsigned threads = m.config.threads;
  double wall[2] = {0, 0};
  std::string reports[2];
  std::vector<std::string> golden;
  std::uint64_t checkpointBytes = 0;
  for (const bool traced : {false, true}) {
    Tracer tracer(traced, threads);
    const std::string ckpt = args.work + "/trace.ckpt";
    std::filesystem::remove(ckpt);
    const auto start = std::chrono::steady_clock::now();
    Instances instances(m.jobs.size());
    runParallel(threads, m.jobs.size(), [&](std::size_t c, unsigned w) {
      buildCellTraced(tracer, w, m, c, instances[c]);
    });
    const Recount counts = recount(m, instances, tracer);
    {
      campaign::CheckpointStore store(ckpt);
      store.bindCampaign({m.config.baseSeed, m.config.trials,
                          m.config.timeoutFactor,
                          campaign::checkpointToolList(m.jobs),
                          m.plan ? m.plan->canonical() : std::string()});
      for (std::size_t r = 0; r < counts.records.size(); ++r) {
        ScopedSpan span(tracer, 0, "campaign.checkpoint_append",
                        static_cast<std::uint32_t>(counts.recordCells[r]));
        store.append(counts.records[r]);
      }
    }
    wall[traced] = secondsSince(start);
    reports[traced] = expectedReport(m, counts);
    if (traced) {
      checkpointBytes = std::filesystem::file_size(ckpt);
      golden = goldenFailures(m, instances, threads);
      tracer.write(args.work + "/spans.tsv");
    }
  }
  RF_CHECK(reports[0] == reports[1],
           "traced and untraced in-process runs disagree");
  std::string cells;
  for (std::size_t c = 0; c < m.jobs.size(); ++c) {
    cells += std::to_string(c) + "\t" + m.jobs[c].app + "\t" + m.jobs[c].tool +
             "\t" + baseToolName(m.bases[c]) + "\n";
  }
  writeFile(args.work + "/cells.tsv", cells);
  writeFile(args.work + "/expected.csv", reports[1]);
  writeFile(args.work + "/trace.json",
            "{\"wall_untraced_s\": " + jsonNumbers({wall[0]}) +
                ", \"wall_traced_s\": " + jsonNumbers({wall[1]}) +
                ", \"checkpoint_bytes\": " + std::to_string(checkpointBytes) +
                ", \"golden_failures\": " + jsonStrings(golden) + "}\n");
  return 0;
}

int relayMode(const Args& args) {
  RF_CHECK(args.targetPort != 0 && !args.events.empty(),
           "relay needs --target-port and --events");
  // Block the stop signals before any thread exists so every thread
  // inherits the mask and sigwait below is their only receiver.
  sigset_t stopSignals;
  sigemptyset(&stopSignals);
  sigaddset(&stopSignals, SIGTERM);
  sigaddset(&stopSignals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stopSignals, nullptr);
  FrameRelay relay("127.0.0.1", args.targetPort);
  std::printf("relay port %u\n", relay.port());
  std::fflush(stdout);
  int signal = 0;
  sigwait(&stopSignals, &signal);
  relay.stop();
  std::string out;
  for (const auto& e : relay.events()) {
    out += std::to_string(e.ns) + "\t" + std::to_string(e.conn) + "\t" +
           (e.up ? "up" : "down") + "\t" + std::to_string(e.type) + "\t" +
           std::to_string(e.lease) + "\t" + std::to_string(e.epoch) + "\t" +
           std::to_string(e.bytes) + "\n";
  }
  writeFile(args.events, out);
  return 0;
}

int fingerprintMode() {
#if defined(__clang__)
  const std::string compiler = std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("GCC ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf("{\"compiler\": %s, \"build_type\": %s}\n",
              jsonString(compiler).c_str(),
              jsonString(CAMPBENCH_BUILD_TYPE).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    if (args.mode == "check") return checkMode(args);
    if (args.mode == "trace") return traceMode(args);
    if (args.mode == "relay") return relayMode(args);
    if (args.mode == "fingerprint") return fingerprintMode();
    std::fprintf(stderr, "campbench-driver: unknown mode '%s'\n",
                 args.mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campbench-driver: %s\n", e.what());
    return 1;
  }
}
