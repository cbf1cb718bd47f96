// Serving phase: the trained mixture is served by a server process (built
// from examples/serve.cpp, default batching: max-batch 8, 2 ms delay) and
// one client connection drives it open-loop, 8 samples per request.
//
// Latency is measured from each request's *scheduled* send time to the
// moment its response arrived, so a stall debits every request queued behind
// it. The generator reports its own lateness; a level whose generator ran
// late, whose backlog grew, or that failed a request is invalid and is
// re-measured rather than reported.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <random>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "core/checkpoint_sampler.hpp"
#include "proc.hpp"
#include "serve/client.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace cellgan;

namespace {

constexpr std::uint32_t kCount = 8;          ///< samples per request
constexpr double kMinAchievedShare = 0.95;   ///< no growing backlog
constexpr double kMaxLateMs = 5.0;           ///< generator p99 lateness bound
constexpr std::size_t kParityEvery = 97;     ///< checked request stride
constexpr std::size_t kLightWindows = 2;       ///< 200 QPS: 5 s windows
constexpr std::size_t kHeavyWindows = 4;       ///< 800 QPS: 1.25 s windows
constexpr std::size_t kWindowRequests = 1000;  ///< >= 10 samples beyond p99
constexpr std::size_t kSaturationProbes = 3;
constexpr std::size_t kSaturationRequests = 3000;  ///< 1 s at 3000 QPS

/// The serving daemon as a child process; stopped (drain-first) by stop(),
/// killed by the destructor if still running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawn and wait for the "listening on HOST:PORT" line.
  bool start(const std::string& exe, const std::string& checkpoint, std::string* error) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    pid_ = spawn_process({exe, "--checkpoint", checkpoint, "--listen", "127.0.0.1:0",
                          "--max-batch", "8", "--max-delay-us", "2000"},
                         {}, fds[1]);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (pid_ < 0) {
      *error = "cannot spawn " + exe;
      return false;
    }
    std::string text;
    const double deadline = now_s() + 60.0;
    const std::string marker = "listening on ";
    while (now_s() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buffer[256];
      const ssize_t n = ::read(out_fd_, buffer, sizeof(buffer));
      if (n <= 0) break;
      text.append(buffer, static_cast<std::size_t>(n));
      const auto at = text.find(marker);
      const auto eol = at == std::string::npos ? at : text.find('\n', at);
      if (eol != std::string::npos) {
        const auto parsed = minimpi::Endpoint::parse(
            text.substr(at + marker.size(), eol - at - marker.size()), error);
        if (!parsed) return false;
        endpoint_ = *parsed;
        return true;
      }
    }
    *error = "server did not announce its endpoint: " + text;
    return false;
  }

  const minimpi::Endpoint& endpoint() const { return endpoint_; }
  double peak_rss_mb() const { return perfbench::peak_rss_mb(std::to_string(pid_)); }

  /// Drain-first shutdown through `client`, then reap. True on a clean exit.
  bool stop(serve::ServeClient& client) {
    const bool acked = client.shutdown_server(10.0);
    client.close();
    const bool exited = wait_all({pid_}, 20.0);
    pid_ = -1;
    return acked && exited;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  minimpi::Endpoint endpoint_;
};

/// What one offered-rate level measured.
struct LevelResult {
  double achieved_qps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;
  double occupancy = 0.0;   ///< mean co-batched requests
  double queue_ms = 0.0;    ///< mean enqueue -> batch close
  double forward_ms = 0.0;  ///< mean shared forward + scatter
  bool generator_late = false;
  bool backlog = false;
  bool valid() const { return failed == 0 && !generator_late && !backlog; }
};

using Reference = std::function<tensor::Tensor(std::uint32_t count, std::uint64_t seed)>;

/// Drive `client` open-loop at `qps` for `requests` requests. Every
/// kParityEvery-th response is compared byte for byte with `reference`.
LevelResult run_level(serve::ServeClient& client, double qps, std::size_t requests,
                      std::uint64_t seed_base, const Reference& reference,
                      std::uint64_t* parity_checked, std::uint64_t* parity_failed) {
  LevelResult r;
  std::vector<double> scheduled(requests, 0.0);
  std::vector<std::uint64_t> ids(requests, 0);
  std::vector<double> late_ms(requests, 0.0);
  std::vector<double> latency_ms;
  std::vector<double> occupancy, queue_ms, forward_ms;
  std::vector<std::pair<std::uint64_t, std::vector<float>>> kept;
  std::atomic<std::size_t> published{0};
  std::vector<double> received_at;
  std::uint64_t ok = 0;

  // The waiter drains responses in send order; the client's reader thread
  // stamps each arrival, so waiting order does not bias the latencies.
  std::thread waiter([&] {
    for (std::size_t i = 0; i < requests; ++i) {
      while (published.load(std::memory_order_acquire) <= i) ::usleep(200);
      serve::ServeClient::Completion c;
      if (ids[i] == 0 || !client.wait(ids[i], &c, 30.0)) continue;
      const auto& resp = c.response;
      if (!resp.ok() || resp.rows != kCount || resp.samples.size() != std::size_t{resp.rows} * resp.cols) {
        continue;
      }
      ++ok;
      const double received = std::chrono::duration<double>(
                                  c.received.time_since_epoch()).count();
      latency_ms.push_back((received - scheduled[i]) * 1e3);
      received_at.push_back(received);
      occupancy.push_back(resp.batch_requests);
      queue_ms.push_back(resp.queue_us / 1e3);
      forward_ms.push_back(resp.forward_us / 1e3);
      if (i % kParityEvery == 0) kept.emplace_back(seed_base + i, resp.samples);
      Span span;
      span.name = "serve.request";
      span.start_us = scheduled[i] * 1e6;
      span.end_us = received * 1e6;
      span.id = ids[i];
      span.tid = 1;
      Tracer::instance().add(span);
    }
  });

  // Request i is due at a uniformly drawn point of the i-th 1/qps slot,
  // from the window's seed. An evenly spaced schedule phase-locks with the
  // batcher's 2 ms timer, so the heavy p50 jumped between two values from
  // run to run; Poisson arrivals queue in bursts, so the light p50 followed
  // every change in the host's speed.
  std::mt19937_64 jitter(seed_base);
  std::uniform_real_distribution<double> slot(0.0, 1.0);
  const double t0 = now_s() + 0.01;
  for (std::size_t i = 0; i < requests; ++i) {
    scheduled[i] = t0 + (static_cast<double>(i) + slot(jitter)) / qps;
    double now = now_s();
    while (now < scheduled[i]) {
      const double wait = scheduled[i] - now;
      if (wait > 0.0003) ::usleep(static_cast<useconds_t>((wait - 0.0002) * 1e6));
      now = now_s();
    }
    late_ms[i] = (now - scheduled[i]) * 1e3;
    ids[i] = client.send_request(seed_base + i, kCount);
    published.store(i + 1, std::memory_order_release);
  }
  waiter.join();

  r.sent = requests;
  r.failed = requests - ok;
  r.p50_ms = quantile(latency_ms, 0.50);
  r.p99_ms = quantile(latency_ms, 0.99);
  r.late_p99_ms = quantile(late_ms, 0.99);
  // Completion rate over the central 98% of responses: a growing backlog
  // caps it at the service rate, while one slow response at either end of
  // the window does not move it.
  std::sort(received_at.begin(), received_at.end());
  if (received_at.size() >= 100) {
    const std::size_t lo = received_at.size() / 100;
    const std::size_t hi = received_at.size() - 1 - lo;
    r.achieved_qps = static_cast<double>(hi - lo) / (received_at[hi] - received_at[lo]);
  }
  r.occupancy = mean(occupancy);
  r.queue_ms = mean(queue_ms);
  r.forward_ms = mean(forward_ms);
  r.generator_late = r.late_p99_ms > kMaxLateMs;
  r.backlog = r.achieved_qps < kMinAchievedShare * qps;
  std::fprintf(stderr,
               "perfbench: %7.1f qps x %zu: p50 %.2f p99 %.2f ms, achieved %.1f/s,"
               " late p99 %.2f ms, occupancy %.2f, %llu failed\n",
               qps, requests, r.p50_ms, r.p99_ms, r.achieved_qps, r.late_p99_ms, r.occupancy,
               static_cast<unsigned long long>(r.failed));
  for (const auto& [seed, samples] : kept) {
    const tensor::Tensor expected = reference(kCount, seed);
    const auto want = expected.data();
    const bool same = samples.size() == want.size() &&
                      std::memcmp(samples.data(), want.data(), samples.size() * sizeof(float)) == 0;
    ++*parity_checked;
    if (!same) ++*parity_failed;
  }
  return r;
}

/// Measure one level as `count` windows of kWindowRequests requests. A window
/// that is invalid is re-measured, up to twice. The level's p50 and p99 are
/// the medians of its windows' (each window has >= 10 samples beyond its
/// p99), so one burst of host stalls moves one window, not the level.
LevelResult measured_level(serve::ServeClient& client, double qps, std::size_t count,
                           std::uint64_t& seed_cursor,
                           const Reference& reference, std::uint64_t* checked,
                           std::uint64_t* failed, Report& report, const std::string& label) {
  ScopedSpan span("serve.level." + label);
  std::vector<LevelResult> windows;  // valid ones
  std::vector<LevelResult> measured;
  for (std::size_t w = 0; w < count; ++w) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const LevelResult r =
          run_level(client, qps, kWindowRequests, seed_cursor, reference, checked, failed);
      seed_cursor += kWindowRequests;
      report.count(r.sent, r.failed, "serve requests at " + label);
      measured.push_back(r);
      if (r.valid()) {
        windows.push_back(r);
        break;
      }
      std::fprintf(stderr, "perfbench: %s window invalid; re-measuring\n", label.c_str());
    }
  }
  // Windows that never ran on schedule are left out. When none is left the
  // host kept the generator late throughout: the level is reported from every
  // window and flagged, since the server did nothing wrong.
  const bool valid = !windows.empty();
  report.info("serve_level_" + label + "_valid", valid ? "true" : "false");
  if (!valid) {
    std::fprintf(stderr, "perfbench: %s level never ran on schedule; flagged\n", label.c_str());
    windows = measured;
  }
  const auto across = [&](double LevelResult::*member) {
    std::vector<double> values;
    for (const auto& w : windows) values.push_back(w.*member);
    return values;
  };
  LevelResult level;
  level.p50_ms = median(across(&LevelResult::p50_ms));
  level.p99_ms = median(across(&LevelResult::p99_ms));
  level.late_p99_ms = quantile(across(&LevelResult::late_p99_ms), 1.0);
  level.achieved_qps = median(across(&LevelResult::achieved_qps));
  level.occupancy = mean(across(&LevelResult::occupancy));
  level.queue_ms = mean(across(&LevelResult::queue_ms));
  level.forward_ms = mean(across(&LevelResult::forward_ms));
  return level;
}

/// Spawn the server and time spawn -> first correct response.
double start_server(const RunArgs& args, const TrainedModel& model, const Reference& reference,
                    ServerProcess& server, serve::ServeClient& client, std::uint64_t seed,
                    Report& report) {
  ScopedSpan span("serve.setup");
  const double t0 = now_s();
  std::string error;
  if (!server.start(args.server_exe, model.checkpoint_path, &error) ||
      !client.connect(server.endpoint(), 30.0, &error)) {
    throw std::runtime_error("serve set-up: " + error);
  }
  const auto id = client.send_request(seed, kCount);
  serve::ServeClient::Completion c;
  const bool answered = id != 0 && client.wait(id, &c, 60.0) && c.response.ok();
  const double setup = now_s() - t0;
  bool same = false;
  if (answered) {
    const tensor::Tensor expected = reference(kCount, seed);
    const auto want = expected.data();
    same = c.response.samples.size() == want.size() &&
           std::memcmp(c.response.samples.data(), want.data(), want.size() * sizeof(float)) == 0;
  }
  report.check(same, "first served response differs from Session::sample_best");
  return setup;
}

}  // namespace

ServeOutcome run_serving(const RunArgs& args, TrainedModel& model, Report& report) {
  ServeOutcome out;
  const Reference reference = [&model](std::uint32_t count, std::uint64_t seed) {
    return model.session->sample_best(model.result, count, seed);
  };
  std::uint64_t seed_cursor = derive_seeds(args.seed).requests;
  std::uint64_t parity_checked = 0;
  std::uint64_t parity_failed = 0;

  // Set-up: spawn -> first correct response, several times; the last server
  // stays up for the load levels.
  const int spawns = args.trace ? 1 : 3;
  std::vector<double> setups;
  auto server = std::make_unique<ServerProcess>();
  auto client = std::make_unique<serve::ServeClient>();
  for (int i = 0; i < spawns; ++i) {
    if (i > 0) {
      report.check(server->stop(*client), "server did not drain and exit cleanly");
      server = std::make_unique<ServerProcess>();
      client = std::make_unique<serve::ServeClient>();
    }
    setups.push_back(start_server(args, model, reference, *server, *client, seed_cursor++, report));
  }
  out.setup_s = median(setups);

  const LevelResult light = measured_level(*client, 200.0, kLightWindows, seed_cursor, reference,
                                           &parity_checked, &parity_failed, report, "light");
  report.info("serve_requests_light", std::to_string(kLightWindows * kWindowRequests));

  if (!args.trace) {
    report.metric("latency_p50_ms.light", light.p50_ms, "ms");
  } else {
    const LevelResult heavy = measured_level(*client, 800.0, kHeavyWindows, seed_cursor,
                                             reference, &parity_checked, &parity_failed, report,
                                             "heavy");
    out.occupancy_heavy = heavy.occupancy;
    report.info("serve_requests_heavy", std::to_string(kHeavyWindows * kWindowRequests));
    // Capacity, the highest rate the server sustains without a growing
    // backlog: offering 3000 QPS overloads it, so its completion rate is the
    // rate it serves with full batches; the median of kSaturationProbes
    // probes. A layer figure, like the tail: searching offered rates for the
    // highest with p99 <= 25 ms read 1.0k-1.9k QPS from run to run on a
    // shared host, and the saturation rate itself 1.1k-1.7k.
    std::vector<double> saturated;
    for (std::size_t probe = 0; probe < kSaturationProbes; ++probe) {
      ScopedSpan span("serve.saturation_probe", probe);
      const LevelResult r = run_level(*client, 3000.0, kSaturationRequests, seed_cursor,
                                      reference, &parity_checked, &parity_failed);
      seed_cursor += kSaturationRequests;
      report.count(r.sent, r.failed, "saturation probe requests");
      saturated.push_back(r.achieved_qps);
    }
    report.metric("serve.capacity_qps", median(saturated), "1/s");
    // Latency at 800 QPS is a layer figure too. Queueing there amplifies the
    // shared host's speed drift: the p50 spread 25-31% over ten seeds. The
    // tails follow hypervisor stalls. Both are wider than any regression
    // bound the benchmark may set.
    report.metric("serve.latency_p50_ms.heavy", heavy.p50_ms, "ms");
    report.metric("serve.latency_p99_ms.light", light.p99_ms, "ms");
    report.metric("serve.latency_p99_ms.heavy", heavy.p99_ms, "ms");
    report.metric("serve.occupancy.light", light.occupancy, "requests");
    report.metric("serve.occupancy.heavy", heavy.occupancy, "requests");
    report.metric("serve.queue_wait_ms.light", light.queue_ms, "ms");
    report.metric("serve.queue_wait_ms.heavy", heavy.queue_ms, "ms");
    report.metric("serve.forward_ms.light", light.forward_ms, "ms");
    report.metric("serve.forward_ms.heavy", heavy.forward_ms, "ms");
    report.metric("serve.generator_late_ms_p99",
                  std::max(light.late_p99_ms, heavy.late_p99_ms), "ms");
    // Model load as the server does it: read the checkpoint, rebuild the
    // best cell's mixture.
    std::vector<double> loads;
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span("serve.model_load");
      const double t0 = now_s();
      const auto snapshot = core::load_checkpoint(model.checkpoint_path);
      report.check(snapshot.has_value(), "checkpoint does not load");
      if (snapshot) core::CheckpointMixture mixture(*snapshot);
      loads.push_back((now_s() - t0) * 1e3);
    }
    report.metric("serve.model_load_ms", median(loads), "ms");
  }
  out.peak_rss_mb = server->peak_rss_mb();
  report.check(server->stop(*client), "server did not drain and exit cleanly");
  report.count(parity_checked, parity_failed, "served bytes differ from Session::sample_best");
  return out;
}

}  // namespace perfbench
