// Outside-in span recorder for the campaign benchmark.
//
// The driver wraps each call it makes into a layer of the program (frontend,
// opt, backend, fi, vm, campaign) in a ScopedSpan. A span records its name,
// start and end on the steady clock, the span that was open on the same
// thread when it began (its parent), the matrix cell it worked for, and up
// to four counts whose meaning depends on the span name (see driver/main.cpp
// and campbench/README.md). Spans stay in per-thread memory and are written
// out once, at the end of the run; each layer's self time is derived from
// them afterwards (campbench/layers.py).
//
// A disabled Tracer makes ScopedSpan a no-op: no clock reads, no stores. The
// driver times the same run with tracing off and on to state the overhead.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace campbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";     // string literal
  std::uint32_t cell = 0;    // matrix cell index; ~0 = not cell-specific
  std::uint32_t thread = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::array<std::uint64_t, 4> counts{};
};

inline constexpr std::uint32_t kNoCell = ~0u;

class Tracer {
 public:
  Tracer(bool enabled, unsigned threads);

  bool enabled() const noexcept { return enabled_; }

  /// Per-thread span log; only its owning thread touches it while a run is
  /// in flight, so recording takes no lock.
  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<std::size_t> open;  // indices of open spans (a stack)
    std::uint64_t nextId = 1;
  };
  ThreadLog& log(unsigned thread) { return logs_[thread]; }

  /// Nanoseconds since the tracer was created.
  std::int64_t now() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Writes every span as one tab-separated line:
  /// id parent name cell thread start_ns end_ns c0 c1 c2 c3
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<ThreadLog> logs_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, unsigned thread, const char* name,
             std::uint32_t cell = kNoCell);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Sets count slot `i` of this span (ignored when tracing is off).
  void count(std::size_t i, std::uint64_t value) noexcept;

 private:
  Tracer::ThreadLog* log_ = nullptr;  // null when tracing is off
  std::size_t index_ = 0;
  const Tracer* tracer_ = nullptr;
};

}  // namespace campbench
