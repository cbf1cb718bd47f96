// Small shared helpers of the benchmark harness: clocks, order statistics,
// process peak RSS, number formatting and the metric sheet every workload
// fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

/// Peak resident set (VmHWM) of process `pid` ("self" for this process), in
/// MiB; 0 when /proc does not report it.
inline double peak_rss_mb(const std::string& pid = "self") {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// Shortest text that reads back as exactly `value`.
inline std::string fmt(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Named metric values with units, in insertion order, plus the run's
/// operation counters and the facts stamped next to the numbers.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    metrics_.push_back({name, value, unit});
  }
  void info(const std::string& key, const std::string& json_value) {
    info_.push_back({key, json_value});
  }
  void info_text(const std::string& key, const std::string& text) {
    info(key, "\"" + json_escape(text) + "\"");
  }
  /// One checked operation: `ok` false counts it failed and records `what`.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  /// Many operations of one kind at once (e.g. served requests).
  void count(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && failures_.size() < 20) {
      failures_.push_back(what + ": " + std::to_string(failed) + " failed");
    }
  }

  std::string to_json() const {
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      out += (i == 0 ? "" : ", ") + std::string("\"") + m.name +
             "\": {\"value\": " + fmt(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}, \"info\": {";
    for (std::size_t i = 0; i < info_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + std::string("\"") + info_[i].name +
             "\": " + info_[i].json;
    }
    out += "}, \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + json_escape(failures_[i]) + "\"";
    }
    out += "]}";
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  struct Info {
    std::string name;
    std::string json;
  };
  std::vector<Entry> metrics_;
  std::vector<Info> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
