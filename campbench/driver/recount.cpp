#include "recount.h"

#include "campaign/outcome.h"
#include "campaign/registry.h"
#include "campaign/report.h"
#include "campaign/scratch.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace campbench {

using namespace refine;

Recount recount(
    const Matrix& matrix,
    const std::vector<std::unique_ptr<campaign::ToolInstance>>& instances,
    Tracer& tracer) {
  const auto& jobs = matrix.jobs;
  const unsigned threads = matrix.config.threads;
  std::vector<std::unique_ptr<campaign::TrialScratch>> scratch(threads);
  for (auto& s : scratch) s = std::make_unique<campaign::TrialScratch>();
  std::vector<std::vector<campaign::TrialDraw>> draws(threads);

  Recount out;
  out.cells.resize(jobs.size());
  std::vector<bool> done(jobs.size(), false);

  struct Batch {
    std::size_t cell = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::vector<campaign::OutcomeCounts> perWorker;
  };
  struct Chunk {
    std::size_t batch = 0;
    std::uint64_t begin = 0;  // absolute trial indices
    std::uint64_t end = 0;
  };

  for (std::uint64_t round = 0;; ++round) {
    std::vector<Batch> batches;
    for (std::size_t c = 0; c < jobs.size(); ++c) {
      if (done[c]) continue;
      const campaign::OutcomeCounts& sofar = out.cells[c].total.counts;
      std::uint64_t size = matrix.config.trials;
      if (matrix.plan) {
        size = campaign::planNextBatch(*matrix.plan, round, sofar);
      } else if (round > 0) {
        size = 0;
      }
      if (size == 0) {
        done[c] = true;
        continue;
      }
      batches.push_back({c, sofar.total(), sofar.total() + size,
                         std::vector<campaign::OutcomeCounts>(threads)});
    }
    if (batches.empty()) break;

    std::vector<Chunk> chunks;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      forEachChunk(batches[b].end - batches[b].begin,
                   static_cast<std::size_t>(threads) * 8,
                   [&](std::size_t begin, std::size_t end) {
                     chunks.push_back({b, batches[b].begin + begin,
                                       batches[b].begin + end});
                   });
    }
    runParallel(threads, chunks.size(), [&](std::size_t k, unsigned w) {
      const Chunk& chunk = chunks[k];
      Batch& batch = batches[chunk.batch];
      const auto& job = jobs[batch.cell];
      campaign::ToolInstance& instance = *instances[batch.cell];
      const auto& profile = instance.profile();
      const auto budget = static_cast<std::uint64_t>(
          matrix.config.timeoutFactor *
          static_cast<double>(profile.instrCount));
      const auto cell = static_cast<std::uint32_t>(batch.cell);
      ScopedSpan chunkSpan(tracer, w, "campaign.chunk", cell);
      chunkSpan.count(0, chunk.end - chunk.begin);
      campaign::drawTrialChunk(matrix.config.baseSeed, fnv1a(job.app),
                               campaign::injectorSeedKey(job.tool),
                               profile.dynamicTargets, chunk.begin, chunk.end,
                               draws[w]);
      campaign::TrialScratch& s = *scratch[w];
      s.setGolden(&profile.goldenOutput);
      for (const campaign::TrialDraw& d : draws[w]) {
        const campaign::Trial* trial = nullptr;
        {
          ScopedSpan span(tracer, w, "vm.trial", cell);
          trial = &instance.runTrial(d.target, d.seed, budget, s);
          span.count(0, trial->exec.instrCount - trial->fastForwardedInstrs);
          span.count(1, trial->exec.jitInstrCount);
          span.count(2, trial->restoredBytes);
          span.count(3, trial->fastForwardedInstrs);
        }
        batch.perWorker[w].add(
            campaign::classify(trial->exec, profile.goldenOutput));
      }
    });

    for (const Batch& batch : batches) {
      const auto& job = jobs[batch.cell];
      const auto& profile = instances[batch.cell]->profile();
      campaign::CampaignResult record;
      record.app = job.app;
      record.tool = job.tool;
      for (const auto& partial : batch.perWorker) record.counts += partial;
      record.dynamicTargets = profile.dynamicTargets;
      record.profileInstrs = profile.instrCount;
      record.binarySize = instances[batch.cell]->binarySize();
      if (matrix.plan) record.planRound = round;

      campaign::PlannedCell& cell = out.cells[batch.cell];
      cell.total.app = record.app;
      cell.total.tool = record.tool;
      cell.total.counts += record.counts;
      cell.total.dynamicTargets = record.dynamicTargets;
      cell.total.profileInstrs = record.profileInstrs;
      cell.total.binarySize = record.binarySize;
      cell.rounds = round + 1;
      out.records.push_back(std::move(record));
      out.recordCells.push_back(batch.cell);
    }
  }
  for (auto& cell : out.cells) {
    cell.converged =
        matrix.plan && campaign::planConverged(*matrix.plan, cell.total.counts);
  }
  return out;
}

std::string expectedReport(const Matrix& matrix, const Recount& recount) {
  if (matrix.plan && !matrix.protectSuite) {
    return campaign::plannedCountsCsv(recount.cells, *matrix.plan);
  }
  std::vector<campaign::CampaignResult> totals;
  totals.reserve(recount.cells.size());
  for (const auto& cell : recount.cells) totals.push_back(cell.total);
  return matrix.protectSuite ? campaign::protectionSuiteCsv(totals)
                             : campaign::countsCsv(totals);
}

}  // namespace campbench
