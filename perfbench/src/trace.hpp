// Span recorder of the traced runs.
//
// The harness wraps its calls into each module's public functions in spans
// (name, start, end, parent span, epoch/request id). Spans stay in memory and
// are written once, at the end of the run, as Chrome trace-event JSON that
// opens in Perfetto or chrome://tracing. Timestamps are CLOCK_MONOTONIC
// microseconds, which every process on the host shares, so spans recorded by
// the TCP rank processes merge onto one timeline. When tracing is off, a
// ScopedSpan costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::uint64_t id = 0;      ///< epoch / request id; 0 when none
  int pid = 0;               ///< 0 = harness; rank processes use 1 + rank
  int tid = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Open a span on the calling thread (parent = the thread's innermost open
  /// span). Returns its index, or -1 when tracing is off.
  std::int64_t open(const std::string& name, std::uint64_t id = 0);
  void close(std::int64_t index);
  /// Record an already-finished span with explicit times (e.g. a request's
  /// scheduled send to its response). Returns its index, -1 when off.
  std::int64_t add(Span span);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;
  /// Write every span as Chrome trace-event JSON; false when the file cannot
  /// be written.
  bool write_chrome(const std::string& path) const;

  static double now_us();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, std::uint64_t id = 0)
      : index_(Tracer::instance().enabled() ? Tracer::instance().open(name, id)
                                            : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::instance().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t index_;
};

}  // namespace perfbench
