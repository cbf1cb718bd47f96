// Training phase of both workloads, the TCP rank process body, the seeded
// input generator, and the per-run orchestration (run_workload).
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "data/dataset.hpp"
#include "data/idx.hpp"
#include "data/synthetic_mnist.hpp"
#include "minimpi/bootstrap.hpp"
#include "proc.hpp"
#include "tensor/kernels.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace cellgan;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kTrainSamples = 60000;
constexpr std::size_t kTestSamples = 10000;
constexpr std::size_t kGenChunks = 4;

/// Write one IDX split: `n` synthetic samples generated in kGenChunks
/// parallel chunks (chunk k drawn with seed + k), quantized to bytes exactly
/// the way make_idx does it.
bool write_split(const std::string& dir, const char* images_name,
                 const char* labels_name, std::size_t n, std::uint64_t seed) {
  std::vector<std::future<data::Dataset>> parts;
  const std::size_t per = (n + kGenChunks - 1) / kGenChunks;
  for (std::size_t k = 0; k < kGenChunks; ++k) {
    const std::size_t count = std::min(per, n - std::min(n, k * per));
    parts.push_back(std::async(std::launch::async, [count, seed, k] {
      return data::make_synthetic_mnist(count, seed + k);
    }));
  }
  data::IdxImages images;
  images.count = static_cast<std::uint32_t>(n);
  images.rows = data::kImageSide;
  images.cols = data::kImageSide;
  images.pixels.reserve(n * data::kImageDim);
  std::vector<std::uint8_t> labels;
  labels.reserve(n);
  for (auto& part : parts) {
    const data::Dataset set = part.get();
    for (const float f : set.images.data()) {
      const float v = (f + 1.0f) * 127.5f;
      images.pixels.push_back(
          static_cast<std::uint8_t>(v < 0.0f ? 0.0f : (v > 255.0f ? 255.0f : v)));
    }
    for (const auto label : set.labels) labels.push_back(static_cast<std::uint8_t>(label));
  }
  return data::write_idx_images(dir + "/" + images_name, images) &&
         data::write_idx_labels(dir + "/" + labels_name, labels);
}

/// Observer of the traced runs: epoch wall times from the EventBus stream,
/// exchange adoptions, and one span per epoch.
///
/// In-process trainers publish epoch-started and epoch-completed live, so an
/// epoch's time is exact. The TCP master republishes forwarded records from a
/// 50 ms polling loop, several epochs per drain, so there an epoch's time is
/// the average over a window of kWindow completions, which spans several
/// drains.
class EpochClock final : public core::TrainObserver {
 public:
  static constexpr std::size_t kWindow = 8;

  explicit EpochClock(bool windowed) : windowed_(windowed) {}
  void on_epoch_started(std::uint32_t /*epoch*/) override { started_ = Tracer::now_us(); }
  void on_epoch_completed(const core::EpochRecord& record) override {
    const double end = Tracer::now_us();
    const double start = windowed_ && !completed_.empty() ? completed_.back() : started_;
    completed_.push_back(end);
    if (!windowed_) epoch_ms_.push_back((end - start) / 1e3);
    for (const auto& cell : record.cells) {
      if (cell.exchange_g_adopted != 0 || cell.exchange_d_adopted != 0) ++adoptions_;
    }
    Span span;
    span.name = "core.epoch";
    span.start_us = start;
    span.end_us = end;
    span.id = record.epoch;
    Tracer::instance().add(span);
  }

  std::vector<double> epoch_ms() const {
    if (!windowed_) return epoch_ms_;
    std::vector<double> out;
    for (std::size_t k = 0; k + kWindow < completed_.size(); ++k) {
      out.push_back((completed_[k + kWindow] - completed_[k]) / 1e3 / kWindow);
    }
    return out;
  }
  double adoptions_per_epoch() const {
    return completed_.empty() ? 0.0
                              : static_cast<double>(adoptions_) /
                                    static_cast<double>(completed_.size());
  }

 private:
  bool windowed_;
  double started_ = 0.0;
  std::vector<double> completed_;
  std::vector<double> epoch_ms_;
  std::uint64_t adoptions_ = 0;
};

bool same_fitnesses(const TrainSample& a, const TrainSample& b) {
  return a.g_fitnesses == b.g_fitnesses && a.d_fitnesses == b.d_fitnesses &&
         a.best_cell == b.best_cell;
}

std::string fitness_text(const TrainSample& s) {
  std::string out = "best " + std::to_string(s.best_cell) + "\ng";
  for (const double v : s.g_fitnesses) out += " " + fmt(v);
  out += "\nd";
  for (const double v : s.d_fitnesses) out += " " + fmt(v);
  return out + "\n";
}

/// One in-process training run on the threads (or sequential) backend.
/// `keep` receives the Session (for sampling) when non-null.
TrainSample run_in_process(const core::RunSpec& spec, bool traced,
                           std::unique_ptr<core::Session>* keep,
                           core::RunResult* result_out) {
  const double t0 = now_s();
  auto session = std::make_unique<core::Session>(spec);
  EpochClock clock(false);
  if (traced) session->observers().subscribe(&clock);
  {
    ScopedSpan span("core.Session.prepare");
    if (!session->prepare()) throw std::runtime_error(session->error());
  }
  core::RunResult result;
  {
    ScopedSpan span("core.Session.run");
    result = session->run();
  }
  const double elapsed = now_s() - t0;
  TrainSample s;
  s.wall_s = result.wall_s;
  s.setup_s = elapsed - result.wall_s;
  s.samples_per_s = trained_samples(spec) / result.wall_s;
  s.train_flops = result.train_flops;
  s.virtual_s = result.virtual_s;
  s.best_cell = result.best_cell;
  s.g_fitnesses = result.g_fitnesses;
  s.d_fitnesses = result.d_fitnesses;
  s.routines = result.profiler;
  s.epoch_ms = clock.epoch_ms();
  s.adoptions_per_epoch = clock.adoptions_per_epoch();
  if (result_out != nullptr) *result_out = result;
  if (keep != nullptr) *keep = std::move(session);
  return s;
}

// ---- TCP world ---------------------------------------------------------------

/// Per-rank output file of the rank process: "key value..." lines.
std::map<std::string, std::vector<std::string>> read_rank_file(const std::string& path) {
  std::map<std::string, std::vector<std::string>> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string key;
    words >> key;
    if (key.empty()) continue;
    std::vector<std::string> values;
    std::string value;
    while (words >> value) values.push_back(value);
    if (key == "span" || key == "routine") {
      out[key + "#" + std::to_string(out.size())] = values;
    } else {
      out[key] = values;
    }
  }
  return out;
}

std::vector<double> doubles(const std::vector<std::string>& words) {
  std::vector<double> out;
  for (const auto& w : words) out.push_back(std::strtod(w.c_str(), nullptr));
  return out;
}

double first_double(const std::map<std::string, std::vector<std::string>>& file,
                    const std::string& key) {
  const auto it = file.find(key);
  if (it == file.end() || it->second.empty()) throw std::runtime_error("rank file lacks " + key);
  return std::strtod(it->second[0].c_str(), nullptr);
}

/// One distributed-tcp training run: master + one slave process per cell,
/// wired through the CELLGAN_* environment the way cellgan_launch does it.
/// Rank 0 writes the trained grid's checkpoint to `checkpoint`.
TrainSample run_tcp(const RunArgs& args, const core::RunSpec& spec, bool traced,
                    const std::string& checkpoint) {
  const int world = static_cast<int>(spec.config.grid_cells()) + 1;
  const std::string spec_path = args.out_dir + "/tcp_spec.json";
  if (!spec.save(spec_path)) throw std::runtime_error("cannot write " + spec_path);
  const std::string endpoint = minimpi::pick_local_endpoint();
  std::vector<pid_t> pids;
  std::vector<std::string> outs;
  const double t0 = now_s();
  for (int rank = 0; rank < world; ++rank) {
    outs.push_back(args.out_dir + "/tcp_rank" + std::to_string(rank) + ".txt");
    std::filesystem::remove(outs.back());
    std::vector<std::string> argv = {args.self_exe, "rank", "--spec", spec_path,
                                     "--out", outs.back(), "--trace", traced ? "1" : "0"};
    if (rank == 0) {
      argv.push_back("--checkpoint");
      argv.push_back(checkpoint);
    }
    const pid_t pid = spawn_process(
        argv, {std::string(minimpi::kEnvRank) + "=" + std::to_string(rank),
               std::string(minimpi::kEnvWorld) + "=" + std::to_string(world),
               std::string(minimpi::kEnvEndpoint) + "=" + endpoint});
    if (pid < 0) {
      wait_all(pids, 0.0);
      throw std::runtime_error("cannot spawn rank process");
    }
    pids.push_back(pid);
  }
  const bool ok = wait_all(pids, 150.0);
  const double elapsed = now_s() - t0;
  if (!ok) throw std::runtime_error("a TCP rank process failed or timed out");

  TrainSample s;
  for (int rank = 0; rank < world; ++rank) {
    const auto file = read_rank_file(outs[static_cast<std::size_t>(rank)]);
    const double wall = first_double(file, "wall_s");
    s.peak_rss_mb += first_double(file, "peak_rss_mb");
    for (const auto& [key, values] : file) {
      if (key.rfind("routine#", 0) == 0 && values.size() == 3) {
        if (rank == 0) {
          if (values[0] == common::routine::kManagement) {
            s.master_management_s += std::strtod(values[1].c_str(), nullptr);
          }
        } else {
          s.routines.add(values[0], std::strtod(values[1].c_str(), nullptr));
        }
      }
      if (key.rfind("span#", 0) == 0 && values.size() == 4) {
        Span span;
        span.name = values[0];
        span.start_us = std::strtod(values[1].c_str(), nullptr);
        span.end_us = std::strtod(values[2].c_str(), nullptr);
        span.id = std::strtoull(values[3].c_str(), nullptr, 10);
        span.pid = 1 + rank;
        Tracer::instance().add(span);
      }
    }
    if (rank == 0) {
      s.wall_s = wall;
      s.setup_s = elapsed - wall - first_double(file, "checkpoint_s");
      s.samples_per_s = trained_samples(spec) / wall;
      s.virtual_s = first_double(file, "virtual_s");
      s.best_cell = static_cast<int>(first_double(file, "best_cell"));
      s.g_fitnesses = doubles(file.at("g"));
      s.d_fitnesses = doubles(file.at("d"));
      if (file.count("epoch_ms") != 0) s.epoch_ms = doubles(file.at("epoch_ms"));
      if (file.count("adoptions_per_epoch") != 0) {
        s.adoptions_per_epoch = first_double(file, "adoptions_per_epoch");
      }
    } else {
      s.slave_wall_s.push_back(wall);
    }
  }
  return s;
}

TrainSample from_result(const core::RunSpec& spec, const core::RunResult& result) {
  TrainSample s;
  s.wall_s = result.wall_s;
  s.samples_per_s = trained_samples(spec) / result.wall_s;
  s.virtual_s = result.virtual_s;
  s.best_cell = result.best_cell;
  s.g_fitnesses = result.g_fitnesses;
  s.d_fitnesses = result.d_fitnesses;
  return s;
}

/// Fitness memo across the invocations of one (workload, seed, sources): the
/// traced and untraced runs must train the identical trajectory.
bool check_fitness_memo(const RunArgs& args, const TrainSample& sample) {
  const std::string path = args.out_dir + "/fitness-" + args.workload + "-" +
                           std::to_string(args.seed) + "-" + args.source + ".txt";
  const std::string text = fitness_text(sample);
  std::ifstream in(path);
  if (in) {
    std::stringstream stored;
    stored << in.rdbuf();
    return stored.str() == text;
  }
  std::ofstream(path) << text;
  return true;
}

std::string provenance_json() {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd_isa\": \"" + std::string(tensor::simd_instruction_set()) + "\"";
  out += ", \"tensor_kernel\": \"" +
         std::string(tensor::to_string(tensor::active_kernel_kind())) + "\"";
  out += ", \"compiler\": \"" + json_escape(__VERSION__) + "\"";
  out += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  out += "}";
  return out;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return PERFBENCH_SANITIZE != 0;
#endif
}

/// Repeat `one` until `budget_s` has passed and at least `min_runs` ran.
template <typename Fn>
std::vector<TrainSample> repeat_for(double budget_s, int min_runs, Fn&& one) {
  std::vector<TrainSample> samples;
  const double start = now_s();
  while (static_cast<int>(samples.size()) < min_runs || now_s() - start < budget_s) {
    samples.push_back(one());
    if (samples.size() >= 64) break;
  }
  return samples;
}

std::vector<double> field(const std::vector<TrainSample>& samples,
                          double TrainSample::*member) {
  std::vector<double> out;
  for (const auto& s : samples) out.push_back(s.*member);
  return out;
}

}  // namespace

Seeds derive_seeds(std::uint64_t seed) {
  Seeds seeds;
  seeds.data = splitmix(seed ^ 0x1111) % 1000000007ULL;
  seeds.train = splitmix(seed ^ 0x2222) % 1000000007ULL;
  seeds.requests = splitmix(seed ^ 0x3333) % 1000000007ULL;
  return seeds;
}

double trained_samples(const core::RunSpec& spec) {
  return static_cast<double>(spec.config.grid_cells()) * spec.config.iterations *
         spec.config.batches_per_iteration * spec.config.batch_size;
}

core::RunSpec threads_spec(const std::string& idx_dir, std::uint64_t train_seed,
                           std::uint32_t epochs, std::size_t lanes) {
  core::RunSpec spec;
  spec.config = core::TrainingConfig{};  // Table I: paper nets, batch 100, Adam
  spec.config.grid_rows = 3;
  spec.config.grid_cols = 3;
  spec.config.iterations = epochs;
  spec.config.seed = train_seed;
  spec.backend = core::Backend::kThreads;
  spec.threads = lanes;
  spec.dataset.kind = core::DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = idx_dir;
  return spec;
}

core::RunSpec tcp_spec(const std::string& idx_dir, std::uint64_t train_seed,
                       std::uint32_t epochs) {
  core::RunSpec spec = threads_spec(idx_dir, train_seed, epochs, 1);
  spec.config.grid_rows = 2;
  spec.config.grid_cols = 2;
  spec.config.batch_size = 16;
  spec.backend = core::Backend::kDistributedTcp;
  return spec;
}

int prepare_inputs(std::uint64_t seed, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return 1;
  }
  const Seeds seeds = derive_seeds(seed);
  if (!write_split(dir, "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                   kTrainSamples, seeds.data) ||
      !write_split(dir, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
                   kTestSamples, seeds.data + 1000)) {
    std::fprintf(stderr, "perfbench: cannot write the IDX quartet under %s\n", dir.c_str());
    return 1;
  }
  return 0;
}

int rank_main(int argc, char** argv) {
  std::string spec_path, out_path, checkpoint;
  bool traced = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--spec") spec_path = argv[i + 1];
    if (key == "--out") out_path = argv[i + 1];
    if (key == "--trace") traced = std::string(argv[i + 1]) == "1";
    if (key == "--checkpoint") checkpoint = argv[i + 1];
  }
  std::string error;
  auto spec = core::RunSpec::load(spec_path, &error);
  if (!spec) {
    std::fprintf(stderr, "rank: %s\n", error.c_str());
    return 2;
  }
  Tracer::instance().enable(traced);
  try {
    core::Session session(*spec);
    EpochClock clock(true);
    const bool master = core::Session::hosts_observer_stream(*spec);
    if (traced && master) session.observers().subscribe(&clock);
    {
      ScopedSpan span("core.Session.prepare");
      if (!session.prepare()) {
        std::fprintf(stderr, "rank: %s\n", session.error().c_str());
        return 2;
      }
    }
    core::RunResult result;
    {
      ScopedSpan span("core.Session.run");
      result = session.run();
    }
    double checkpoint_s = 0.0;
    if (!checkpoint.empty()) {
      const double t0 = now_s();
      if (!core::save_checkpoint(checkpoint, session.result_checkpoint(result))) return 3;
      checkpoint_s = now_s() - t0;
    }
    std::ofstream out(out_path);
    out << "wall_s " << fmt(result.wall_s) << "\n";
    out << "checkpoint_s " << fmt(checkpoint_s) << "\n";
    out << "peak_rss_mb " << fmt(peak_rss_mb()) << "\n";
    out << "virtual_s " << fmt(result.virtual_s) << "\n";
    out << "best_cell " << result.best_cell << "\n";
    out << "g";
    for (const double v : result.g_fitnesses) out << " " << fmt(v);
    out << "\nd";
    for (const double v : result.d_fitnesses) out << " " << fmt(v);
    out << "\n";
    for (const auto& name : result.profiler.names()) {
      const auto cost = result.profiler.cost(name);
      out << "routine " << name << " " << fmt(cost.wall_s) << " " << cost.calls << "\n";
    }
    if (traced && master) {
      out << "epoch_ms";
      for (const double v : clock.epoch_ms()) out << " " << fmt(v);
      out << "\nadoptions_per_epoch " << fmt(clock.adoptions_per_epoch()) << "\n";
    }
    // The rank's spans travel to the harness in this file and land on the
    // merged timeline under this rank's pid.
    for (const auto& span : Tracer::instance().spans()) {
      out << "span " << span.name << " " << fmt(span.start_us) << " "
          << fmt(span.end_us) << " " << span.id << "\n";
    }
    out.flush();
    return out ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rank: %s\n", e.what());
    return 3;
  }
}

int run_workload(const RunArgs& args) {
  Report report;
  report.info("provenance", provenance_json());
  report.info("workload_seed", std::to_string(args.seed));
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug" || sanitized_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s%s build\n",
                 PERFBENCH_BUILD_TYPE, sanitized_build() ? " sanitizer" : "");
    return 2;
  }
  const bool tcp = args.workload == "paper-tcp";
  if (!tcp && args.workload != "paper-threads") {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Seeds seeds = derive_seeds(args.seed);
  const std::size_t lanes = 4;
  const std::uint32_t epochs = tcp ? 40 : 8;
  const core::RunSpec spec = tcp ? tcp_spec(args.idx_dir, seeds.train, epochs)
                                 : threads_spec(args.idx_dir, seeds.train, epochs, lanes);
  TrainedModel model;
  model.checkpoint_path = args.out_dir + "/model.ckpt";

  // One training run, untraced or traced. TCP rank 0 also writes the served
  // checkpoint (every run trains the identical grid).
  const auto train_once = [&](bool traced) {
    Tracer::instance().enable(traced);
    TrainSample s = tcp ? run_tcp(args, spec, traced, model.checkpoint_path)
                        : run_in_process(spec, traced, nullptr, nullptr);
    Tracer::instance().enable(false);
    std::fprintf(stderr, "perfbench: %s run: wall %.3f s, setup %.3f s, %.1f samples/s\n",
                 traced ? "traced" : "untraced", s.wall_s, s.setup_s, s.samples_per_s);
    return s;
  };

  const double train_budget = args.trace ? args.seconds * 0.3 : args.seconds;
  std::vector<TrainSample> untraced;
  std::vector<TrainSample> traced;
  if (args.trace) {
    // Alternate untraced and traced runs so drift on the host hits both.
    const double start = now_s();
    while (untraced.size() < 2 || now_s() - start < train_budget) {
      untraced.push_back(train_once(false));
      traced.push_back(train_once(true));
      if (untraced.size() >= 16) break;
    }
  } else {
    // Half the training runs now and half after the serving phase, so the
    // median samples the host over the whole invocation, not one stretch.
    untraced = repeat_for(train_budget / 2, 2, [&] { return train_once(false); });
  }

  if (tcp) {
    // The multi-process result must be field-identical to the in-process
    // `distributed` backend on the same spec; that Session also answers the
    // serving phase's reference samples.
    core::RunSpec reference = spec;
    reference.backend = core::Backend::kDistributed;
    model.session = std::make_unique<core::Session>(reference);
    if (!model.session->prepare()) throw std::runtime_error(model.session->error());
    model.result = model.session->run();
    const TrainSample in_process = from_result(reference, model.result);
    const auto& rank0 = untraced.front();
    report.check(same_fitnesses(rank0, in_process) && rank0.virtual_s == in_process.virtual_s,
                 "distributed-tcp rank 0 differs from the in-process distributed backend");
  } else {
    // Both workloads serve a paper-arch 2x2 grid, the model whose 800 QPS
    // heavy level sits below saturation: here one trained for 5 epochs on
    // the same data and lanes (the TCP world trains its own).
    core::RunSpec serving = spec;
    serving.config.grid_rows = 2;
    serving.config.grid_cols = 2;
    serving.config.iterations = 5;
    (void)run_in_process(serving, false, &model.session, &model.result);
    if (!core::save_checkpoint(model.checkpoint_path,
                               model.session->result_checkpoint(model.result))) {
      throw std::runtime_error("cannot write " + model.checkpoint_path);
    }
  }

  Tracer::instance().enable(args.trace);
  const ServeOutcome served = run_serving(args, model, report);
  Tracer::instance().enable(false);
  if (!args.trace) {
    model.session.reset();  // its memory is not the training runs'
    model.result = core::RunResult{};
    for (auto& s : repeat_for(train_budget / 2, 2, [&] { return train_once(false); })) {
      untraced.push_back(std::move(s));
    }
  }
  const double train_peak_mb = tcp ? 0.0 : peak_rss_mb();

  // Correctness: every repeat (traced or not) trains the identical
  // trajectory, and so does every other invocation with this seed.
  for (const auto& s : untraced) {
    report.check(same_fitnesses(s, untraced.front()), "fitness differs across repeats");
  }
  for (const auto& s : traced) {
    report.check(same_fitnesses(s, untraced.front()), "traced fitness differs from untraced");
  }
  report.check(check_fitness_memo(args, untraced.front()),
               "fitness differs from another invocation with this seed");

  const double train_setup = median(field(untraced, &TrainSample::setup_s));
  const double train_rate = median(field(untraced, &TrainSample::samples_per_s));
  report.info("training_runs", std::to_string(untraced.size()));
  report.info("epochs_per_run", std::to_string(epochs));
  if (!args.trace) {
    report.metric("samples_per_s", train_rate, "1/s");
    report.metric("setup_s", train_setup + served.setup_s, "s");
    const double train_peak = tcp ? quantile(field(untraced, &TrainSample::peak_rss_mb), 1.0)
                                  : train_peak_mb;
    report.metric("peak_rss_mb", train_peak + served.peak_rss_mb, "MiB");
  } else {
    // Single-lane baseline of the same task: the threads backend on one
    // lane, or the sequential backend for the TCP world.
    core::RunSpec single = spec;
    if (tcp) {
      single.backend = core::Backend::kSequential;
    } else {
      single.threads = 1;
      single.config.iterations = 4;
    }
    const TrainSample one_lane = run_in_process(single, false, nullptr, nullptr);
    LayerContext context;
    context.spec = &spec;
    context.lanes = lanes;
    context.serve_rows = 8.0 * served.occupancy_heavy;
    context.traced = &traced.back();
    context.untraced_samples_per_s = train_rate;
    context.one_lane_samples_per_s = one_lane.samples_per_s;
    context.replay_seed = seeds.requests;
    const double traced_rate = median(field(traced, &TrainSample::samples_per_s));
    report.metric("trace.overhead_frac", 1.0 - traced_rate / train_rate, "share");
    Tracer::instance().enable(true);
    run_layer_replays(context, report);
    Tracer::instance().enable(false);
    const std::string trace_path =
        args.out_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".json";
    report.check(Tracer::instance().write_chrome(trace_path), "cannot write " + trace_path);
    report.info_text("trace_file", trace_path);
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}

}  // namespace perfbench
