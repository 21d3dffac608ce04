#include "trace.h"

#include <cstdio>

#include "support/check.h"

namespace campbench {

Tracer::Tracer(bool enabled, unsigned threads)
    : enabled_(enabled),
      epoch_(std::chrono::steady_clock::now()),
      logs_(threads) {
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    // Thread index in the high bits keeps ids unique across logs.
    logs_[t].nextId = (static_cast<std::uint64_t>(t + 1) << 40) | 1;
    if (enabled_) logs_[t].spans.reserve(1 << 14);
  }
}

void Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  RF_CHECK(out != nullptr, "cannot write " + path);
  for (const ThreadLog& log : logs_) {
    for (const Span& s : log.spans) {
      std::fprintf(out, "%llu\t%llu\t%s\t%lld\t%u\t%lld\t%lld\t%llu\t%llu\t%llu\t%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   s.cell == kNoCell ? -1LL : static_cast<long long>(s.cell),
                   s.thread, static_cast<long long>(s.startNs),
                   static_cast<long long>(s.endNs),
                   static_cast<unsigned long long>(s.counts[0]),
                   static_cast<unsigned long long>(s.counts[1]),
                   static_cast<unsigned long long>(s.counts[2]),
                   static_cast<unsigned long long>(s.counts[3]));
    }
  }
  RF_CHECK(std::fclose(out) == 0, "cannot finish writing " + path);
}

ScopedSpan::ScopedSpan(Tracer& tracer, unsigned thread, const char* name,
                       std::uint32_t cell) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  log_ = &tracer.log(thread);
  Span span;
  span.id = log_->nextId++;
  span.parent = log_->open.empty() ? 0 : log_->spans[log_->open.back()].id;
  span.name = name;
  span.cell = cell;
  span.thread = thread;
  index_ = log_->spans.size();
  log_->spans.push_back(span);
  log_->open.push_back(index_);
  // Read the clock last so the bookkeeping above is not inside the span.
  log_->spans[index_].startNs = tracer.now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->spans[index_].endNs = tracer_->now();
  log_->open.pop_back();
}

void ScopedSpan::count(std::size_t i, std::uint64_t value) noexcept {
  if (log_ != nullptr) log_->spans[index_].counts[i] = value;
}

}  // namespace campbench
