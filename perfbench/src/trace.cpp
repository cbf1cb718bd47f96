#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "util.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> open_stack;

/// Upper bound on recorded spans; replays stop being recorded past it rather
/// than growing the trace without limit.
constexpr std::size_t kMaxSpans = 400000;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

std::int64_t Tracer::open(const std::string& name, std::uint64_t id) {
  if (!enabled()) return -1;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_stack.empty() ? -1 : open_stack.back();
  span.start_us = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) return -1;
  spans_.push_back(std::move(span));
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_stack.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const double end = now_us();
  if (!open_stack.empty() && open_stack.back() == index) open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us = end;
}

std::int64_t Tracer::add(Span span) {
  if (!enabled()) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) return -1;
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  double base = std::numeric_limits<double>::max();
  for (const auto& span : spans_) base = std::min(base, span.start_us);
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    const double end = std::max(span.end_us, span.start_us);
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f,"
                 " \"pid\": %d, \"tid\": %d, \"args\": {\"span\": %zu,"
                 " \"parent\": %lld, \"id\": %llu}}\n",
                 i == 0 ? "" : ",", json_escape(span.name).c_str(),
                 span.start_us - base, end - span.start_us, span.pid, span.tid, i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.id));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
