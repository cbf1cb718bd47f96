// Layer replays of the traced runs. Each layer's public functions are called
// at the workload's exact shapes and call mix, from outside, so a layer's
// time can be set against the one above it:
//
//   common   ThreadPool round trip
//   tensor   GEMM variants, activations, flop count per trained sample
//   nn       Sequential forward/backward, Adam
//   core     GAN steps and fitness evaluation; cell-routine shares, epoch
//            times and scaling from the traced training run
//   evolve   genome export / install
//   minimpi  one epoch's exchange in a 5-rank loopback TCP world
//   datastore SampleStore ingest, BatchFeed batches
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/cell_trainer.hpp"
#include "core/gan_trainer.hpp"
#include "data/dataset.hpp"
#include "datastore/batch_feed.hpp"
#include "datastore/sample_store.hpp"
#include "evolve/genome.hpp"
#include "evolve/grid.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/tcp_transport.hpp"
#include "nn/gan_models.hpp"
#include "nn/optimizer.hpp"
#include "tensor/flops.hpp"
#include "tensor/ops.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace cellgan;
using tensor::Tensor;

namespace {

constexpr double kReplaySeconds = 0.25;  ///< minimum timed span per replay
constexpr int kReps = 15;                ///< repetitions of a timed call

/// Median milliseconds of `reps` calls of `fn`, each in a span `name`.
template <typename Fn>
double median_ms(const std::string& name, int reps, Fn&& fn) {
  fn();  // warm caches and lazily sized buffers
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(name);
    const double t0 = now_s();
    fn();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(ms);
}

/// One matrix product of a replay mix: C(m x n) from a k-deep contraction.
struct GemmShape {
  std::size_t m, k, n;
  int calls;  ///< occurrences per cell epoch
};

enum class GemmKind { kNN, kTN, kNT };

/// Operands laid out as the named GEMM variant expects them.
struct GemmOperands {
  Tensor a, b;
  int calls;
};

std::vector<GemmOperands> make_operands(const std::vector<GemmShape>& shapes, GemmKind kind,
                                        common::Rng& rng) {
  std::vector<GemmOperands> out;
  for (const auto& s : shapes) {
    switch (kind) {
      case GemmKind::kNN:  // (m x k) * (k x n)
        out.push_back({Tensor::randn(s.m, s.k, rng), Tensor::randn(s.k, s.n, rng), s.calls});
        break;
      case GemmKind::kTN:  // (k x m)^T * (k x n)
        out.push_back({Tensor::randn(s.k, s.m, rng), Tensor::randn(s.k, s.n, rng), s.calls});
        break;
      case GemmKind::kNT:  // (m x k) * (n x k)^T
        out.push_back({Tensor::randn(s.m, s.k, rng), Tensor::randn(s.n, s.k, rng), s.calls});
        break;
    }
  }
  return out;
}

double mix_flops(const std::vector<GemmShape>& shapes) {
  double flops = 0.0;
  for (const auto& s : shapes) flops += 2.0 * s.m * s.k * s.n * s.calls;
  return flops;
}

/// Run the mix repeatedly for at least kReplaySeconds; GFLOP/s.
double gemm_rate(const std::vector<GemmShape>& shapes, GemmKind kind, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto operands = make_operands(shapes, kind, rng);
  const auto one_pass = [&] {
    for (const auto& op : operands) {
      for (int c = 0; c < op.calls; ++c) {
        Tensor out = kind == GemmKind::kNN   ? tensor::matmul(op.a, op.b)
                     : kind == GemmKind::kTN ? tensor::matmul_tn(op.a, op.b)
                                             : tensor::matmul_nt(op.a, op.b);
        (void)out;
      }
    }
  };
  one_pass();
  int passes = 0;
  const double t0 = now_s();
  do {
    one_pass();
    ++passes;
  } while (now_s() - t0 < kReplaySeconds);
  return mix_flops(shapes) * passes / (now_s() - t0) / 1e9;
}

/// Per-lane GFLOP/s with `lanes` threads replaying the mix concurrently.
double gemm_rate_lanes(const std::vector<GemmShape>& shapes, GemmKind kind, std::size_t lanes,
                       std::uint64_t seed, const std::string& name) {
  ScopedSpan span(name);
  std::vector<std::future<double>> rates;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    rates.push_back(std::async(std::launch::async,
                               [&, lane] { return gemm_rate(shapes, kind, seed + lane); }));
  }
  double total = 0.0;
  for (auto& r : rates) total += r.get();
  return total / static_cast<double>(lanes);
}

/// The Linear layers of a net as (in, out) pairs.
std::vector<std::pair<std::size_t, std::size_t>> linear_dims(const nn::GanArch& arch,
                                                             bool generator) {
  std::vector<std::size_t> widths;
  widths.push_back(generator ? arch.latent_dim : arch.image_dim);
  for (std::size_t h = 0; h < arch.hidden_layers; ++h) widths.push_back(arch.hidden_dim);
  widths.push_back(generator ? arch.image_dim : 1);
  std::vector<std::pair<std::size_t, std::size_t>> dims;
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) dims.emplace_back(widths[i], widths[i + 1]);
  return dims;
}

/// The tensor ops a net's forward + backward consist of (Linear: matmul +
/// add_row_bias, then matmul_tn + axpy + col_sum + axpy + matmul_nt; Tanh:
/// tanh_forward / tanh_backward), replayed directly at batch `b`.
std::function<void()> tensor_ops_probe(const nn::GanArch& arch, bool generator, std::size_t b,
                                       common::Rng& rng) {
  const auto dims = linear_dims(arch, generator);
  struct LayerOps {
    Tensor x, w, bias, gw, gb, dy;
    bool tanh;
  };
  auto layers = std::make_shared<std::vector<LayerOps>>();
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const auto [in, out] = dims[i];
    layers->push_back({Tensor::randn(b, in, rng), Tensor::randn(in, out, rng, 0.05f),
                       Tensor::randn(1, out, rng), Tensor(in, out), Tensor(1, out),
                       Tensor::randn(b, out, rng), generator || i + 1 < dims.size()});
  }
  return [layers] {
    for (auto& l : *layers) {
      Tensor y = tensor::matmul(l.x, l.w);
      tensor::add_row_bias(y, l.bias);
      if (l.tanh) y = tensor::tanh_forward(y);
    }
    for (auto it = layers->rbegin(); it != layers->rend(); ++it) {
      Tensor dy = it->tanh ? tensor::tanh_backward(it->dy, it->dy) : it->dy;
      tensor::axpy(1.0f, tensor::matmul_tn(it->x, dy), it->gw);
      tensor::axpy(1.0f, tensor::col_sum(dy), it->gb);
      Tensor dx = tensor::matmul_nt(dy, it->w);
      (void)dx;
    }
  };
}

struct Probe {
  std::string name;
  std::function<void()> call;
};

/// Median milliseconds of each probe, timed round-robin: each of `reps`
/// rounds calls every probe once, so drift on the host hits all alike and
/// the layers' times stay comparable with one another.
std::vector<double> round_robin_ms(const std::vector<Probe>& probes, int reps) {
  for (const auto& p : probes) p.call();  // warm caches and lazily sized buffers
  std::vector<std::vector<double>> ms(probes.size());
  for (int round = 0; round < reps; ++round) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      ScopedSpan span(probes[i].name, static_cast<std::uint64_t>(round));
      const double t0 = now_s();
      probes[i].call();
      ms[i].push_back((now_s() - t0) * 1e3);
    }
  }
  std::vector<double> medians;
  for (auto& m : ms) medians.push_back(median(m));
  return medians;
}

// ---- minimpi ---------------------------------------------------------------

/// Transport decorator counting the frames and payload bytes a rank sends.
class CountingTransport final : public minimpi::Transport {
 public:
  explicit CountingTransport(std::unique_ptr<minimpi::TcpTransport> inner)
      : inner_(std::move(inner)) {}
  void start() override {
    inner_->set_sink(sink_);
    inner_->set_peer_loss_handler(peer_loss_handler_);
    inner_->start();
  }
  void send(int dst, minimpi::Frame frame) override {
    frames.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(frame.payload.size(), std::memory_order_relaxed);
    inner_->send(dst, std::move(frame));
  }
  void shutdown() override { inner_->shutdown(); }
  const char* name() const override { return "counting-tcp"; }

  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> bytes{0};

 private:
  std::unique_ptr<minimpi::TcpTransport> inner_;
};

struct ExchangeReplay {
  double rendezvous_ms = 0.0;
  double exchange_ms = 0.0;  ///< median epoch, slowest slave
  double bytes_per_epoch = 0.0;
  double frames_per_epoch = 0.0;
};

/// Master + `slaves` ranks, one thread and one TCP transport each, over
/// loopback. The slaves split off a LOCAL communicator and allgather a
/// genome-sized payload per epoch — the exchange the distributed trainer
/// runs — while the master stays out of it.
ExchangeReplay replay_exchange(int slaves, std::size_t genome_bytes, int epochs) {
  const int world = slaves + 1;
  std::vector<std::thread> threads;
  std::promise<std::string> endpoint_promise;
  auto endpoint = endpoint_promise.get_future().share();
  std::mutex mutex;
  std::vector<double> rendezvous(static_cast<std::size_t>(world), 0.0);
  std::vector<std::vector<double>> epoch_ms(static_cast<std::size_t>(world));
  std::atomic<std::uint64_t> frames{0}, bytes{0};
  const double t0 = now_s();
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      minimpi::TcpTransportOptions options;
      options.world_size = world;
      options.rank = rank;
      options.rendezvous = rank == 0 ? "127.0.0.1:0" : endpoint.get();
      auto tcp = std::make_unique<minimpi::TcpTransport>(options);
      if (rank == 0) endpoint_promise.set_value(tcp->rendezvous_endpoint());
      auto counting = std::make_unique<CountingTransport>(std::move(tcp));
      CountingTransport* counter = counting.get();
      minimpi::Runtime runtime(world, rank, std::move(counting));
      rendezvous[static_cast<std::size_t>(rank)] = (now_s() - t0) * 1e3;
      runtime.run([&](minimpi::Comm& comm) {
        auto local = comm.split(rank == 0 ? -1 : 0, rank);
        comm.barrier();
        if (local) {
          const std::uint64_t frames0 = counter->frames.load();
          const std::uint64_t bytes0 = counter->bytes.load();
          std::vector<std::uint8_t> payload(genome_bytes, static_cast<std::uint8_t>(rank));
          for (int e = 0; e < epochs; ++e) {
            ScopedSpan span("minimpi.allgather", static_cast<std::uint64_t>(e));
            const double e0 = now_s();
            const auto all = local->allgather(payload);
            const double ms = (now_s() - e0) * 1e3;
            std::lock_guard<std::mutex> lock(mutex);
            epoch_ms[static_cast<std::size_t>(rank)].push_back(ms);
            (void)all;
          }
          frames += counter->frames.load() - frames0;
          bytes += counter->bytes.load() - bytes0;
        }
        comm.barrier();
      });
    });
  }
  for (auto& t : threads) t.join();
  ExchangeReplay r;
  r.rendezvous_ms = quantile(rendezvous, 1.0);
  std::vector<double> slowest;
  for (int e = 0; e < epochs; ++e) {
    double worst = 0.0;
    for (int rank = 1; rank < world; ++rank) {
      worst = std::max(worst, epoch_ms[static_cast<std::size_t>(rank)][static_cast<std::size_t>(e)]);
    }
    slowest.push_back(worst);
  }
  r.exchange_ms = median(slowest);
  r.bytes_per_epoch = static_cast<double>(bytes.load()) / epochs;
  r.frames_per_epoch = static_cast<double>(frames.load()) / epochs;
  return r;
}

}  // namespace

void run_layer_replays(const LayerContext& ctx, Report& report) {
  const core::RunSpec& spec = *ctx.spec;
  const core::TrainingConfig& config = spec.config;
  const nn::GanArch arch = config.arch;
  const std::size_t b = config.batch_size;
  const std::size_t eval_n = std::min<std::size_t>(config.fitness_eval_samples, b);
  const bool tcp = spec.backend == core::Backend::kDistributedTcp;
  common::Rng rng(ctx.replay_seed);

  // -- common ------------------------------------------------------------------
  {
    common::ThreadPool pool(ctx.lanes);
    const std::function<void(std::size_t, std::size_t)> empty = [](std::size_t, std::size_t) {};
    std::vector<double> us;
    for (int rep = 0; rep < 9; ++rep) {
      ScopedSpan span("common.ThreadPool.parallel_for");
      const double t0 = now_s();
      for (int i = 0; i < 500; ++i) pool.parallel_for(ctx.lanes, empty);
      us.push_back((now_s() - t0) * 1e6 / 500.0);
    }
    report.metric("common.pool_dispatch_us", median(us), "us");
  }

  // -- tensor ------------------------------------------------------------------
  // Per cell epoch: G forward x2 (steps) + x2 (fitness), D forward x3 + x3,
  // D backward x3, G backward x1 (core/gan_trainer.cpp's call mix).
  std::vector<GemmShape> forward, weight_grad, input_grad, serve_forward;
  const auto g_dims = linear_dims(arch, true);
  const auto d_dims = linear_dims(arch, false);
  const std::size_t serve_rows =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(ctx.serve_rows)));
  for (const auto& [in, out] : g_dims) {
    forward.push_back({b, in, out, 2});
    if (eval_n > 0) forward.push_back({eval_n, in, out, 2});
    weight_grad.push_back({in, b, out, 1});
    input_grad.push_back({b, out, in, 1});
    serve_forward.push_back({serve_rows, in, out, 1});
  }
  for (const auto& [in, out] : d_dims) {
    forward.push_back({b, in, out, 3});
    if (eval_n > 0) forward.push_back({eval_n, in, out, 3});
    weight_grad.push_back({in, b, out, 3});
    input_grad.push_back({b, out, in, 3});
  }
  {
    ScopedSpan span("tensor.matmul.solo");
    const double solo = gemm_rate(forward, GemmKind::kNN, ctx.replay_seed);
    report.metric("tensor.gemm_gflops.solo", solo, "GFLOP/s");
  }
  const double lanes_rate =
      gemm_rate_lanes(forward, GemmKind::kNN, ctx.lanes, ctx.replay_seed, "tensor.matmul.lanes");
  report.metric("tensor.gemm_gflops.lanes", lanes_rate, "GFLOP/s");
  report.metric("tensor.matmul_tn_gflops.lanes",
                gemm_rate_lanes(weight_grad, GemmKind::kTN, ctx.lanes, ctx.replay_seed,
                                "tensor.matmul_tn.lanes"),
                "GFLOP/s");
  report.metric("tensor.matmul_nt_gflops.lanes",
                gemm_rate_lanes(input_grad, GemmKind::kNT, ctx.lanes, ctx.replay_seed,
                                "tensor.matmul_nt.lanes"),
                "GFLOP/s");
  {
    ScopedSpan span("tensor.matmul.serve");
    report.metric("tensor.gemm_gflops.serve",
                  gemm_rate(serve_forward, GemmKind::kNN, ctx.replay_seed), "GFLOP/s");
  }
  {
    // tanh forward + backward over every activation of both nets.
    std::vector<Tensor> acts;
    for (const auto& [in, out] : g_dims) acts.push_back(Tensor::randn(b, out, rng));
    for (std::size_t i = 0; i + 1 < d_dims.size(); ++i) {
      acts.push_back(Tensor::randn(b, d_dims[i].second, rng));
    }
    double elements = 0.0;
    for (const auto& a : acts) elements += 2.0 * static_cast<double>(a.size());
    const double ms = median_ms("tensor.tanh", kReps, [&] {
      for (const auto& a : acts) {
        const Tensor y = tensor::tanh_forward(a);
        const Tensor dx = tensor::tanh_backward(a, y);
        (void)dx;
      }
    });
    report.metric("tensor.act_melem_per_s", elements / (ms * 1e-3) / 1e6, "Melem/s");
  }

  // -- nn and core GAN step ---------------------------------------------------------
  nn::Sequential g = nn::make_generator(arch, rng);
  nn::Sequential d = nn::make_discriminator(arch, rng);
  nn::Adam g_opt(config.initial_learning_rate);
  nn::Adam d_opt(config.initial_learning_rate);
  const Tensor z = Tensor::randn(b, arch.latent_dim, rng);
  const Tensor x = Tensor::randn(b, arch.image_dim, rng, 0.5f);
  const Tensor g_grad = Tensor::randn(b, arch.image_dim, rng, 0.01f);
  const Tensor d_grad = Tensor::randn(b, 1, rng, 0.01f);
  const Tensor real = Tensor::rand_uniform(b, arch.image_dim, rng, -1.0f, 1.0f);
  const Tensor real_eval = real.slice_rows(0, std::max<std::size_t>(eval_n, 1));
  common::Rng step_rng(ctx.replay_seed + 1);
  const std::vector<Probe> probes = {
      {"nn.Sequential.forward.G", [&] { (void)g.forward(z); }},
      {"nn.Sequential.forward_backward.G", [&] { (void)g.forward(z); (void)g.backward(g_grad); }},
      {"nn.Sequential.forward.D", [&] { (void)d.forward(x); }},
      {"nn.Sequential.forward_backward.D", [&] { (void)d.forward(x); (void)d.backward(d_grad); }},
      {"nn.Adam.step.G", [&] { g_opt.step(g); }},
      {"nn.Adam.step.D", [&] { d_opt.step(d); }},
      {"tensor.net_ops.G", tensor_ops_probe(arch, true, b, rng)},
      {"tensor.net_ops.D", tensor_ops_probe(arch, false, b, rng)},
      {"core.train_discriminator_step",
       [&] { (void)core::train_discriminator_step(d, d_opt, g, real, arch.latent_dim, step_rng); }},
      {"core.train_generator_step",
       [&] { (void)core::train_generator_step(g, g_opt, d, b, arch.latent_dim, step_rng); }},
      {"core.evaluate_fitness",
       [&] {
         (void)core::evaluate_generator_loss(g, d, eval_n, arch.latent_dim, step_rng);
         (void)core::evaluate_discriminator_loss(d, g, real_eval, arch.latent_dim, step_rng);
       }},
  };
  const std::vector<double> ms = round_robin_ms(probes, 2 * kReps);
  const double g_fwd = ms[0], g_bwd = ms[1] - ms[0], d_fwd = ms[2], d_bwd = ms[3] - ms[2];
  const double adam_g = ms[4], adam_d = ms[5];
  const double d_step = ms[8], g_step = ms[9], fitness = ms[10];
  report.metric("nn.g_forward_ms", g_fwd, "ms");
  report.metric("nn.g_backward_ms", g_bwd, "ms");
  report.metric("nn.d_forward_ms", d_fwd, "ms");
  report.metric("nn.d_backward_ms", d_bwd, "ms");
  report.metric("nn.adam_ms", adam_g + adam_d, "ms");
  report.metric("nn.glue_share", 1.0 - (ms[6] + ms[7]) / (ms[1] + ms[3]), "share");
  report.metric("core.d_step_ms", d_step, "ms");
  report.metric("core.g_step_ms", g_step, "ms");
  report.metric("core.fitness_eval_ms", fitness, "ms");
  // nn time the three calls are made of (fitness forwards run at eval_n rows;
  // scaled from the batch-b timings).
  const double eval_scale = static_cast<double>(eval_n) / static_cast<double>(b);
  const double nn_in_steps = (g_fwd + 2 * d_fwd + 2 * d_bwd + adam_d) +
                             (g_fwd + d_fwd + d_bwd + g_bwd + adam_g) +
                             eval_scale * (2 * g_fwd + 3 * d_fwd);
  report.metric("core.step_glue_share", 1.0 - nn_in_steps / (d_step + g_step + fitness), "share");
  double flops_per_sample = 0.0;
  {
    tensor::ScopedFlopsCounter counter;
    (void)core::train_generator_step(g, g_opt, d, b, arch.latent_dim, step_rng);
    (void)core::train_discriminator_step(d, d_opt, g, real, arch.latent_dim, step_rng);
    (void)core::evaluate_generator_loss(g, d, eval_n, arch.latent_dim, step_rng);
    (void)core::evaluate_discriminator_loss(d, g, real_eval, arch.latent_dim, step_rng);
    flops_per_sample = static_cast<double>(counter.taken()) / static_cast<double>(b);
  }
  report.metric("tensor.flops_per_sample", flops_per_sample, "flop");

  // -- core: cell routines of the traced run -----------------------------------------
  const TrainSample& t = *ctx.traced;
  const double lanes = static_cast<double>(tcp ? config.grid_cells() : ctx.lanes);
  const double lane_seconds = lanes * t.wall_s;
  const auto share = [&](const char* routine) {
    return t.routines.cost(routine).wall_s / lane_seconds;
  };
  const double train_share = share(common::routine::kTrain);
  const double gather_share = share(common::routine::kGather);
  const double update_share = share(common::routine::kUpdateGenomes);
  const double mutate_share = share(common::routine::kMutate);
  report.metric("core.train_share", train_share, "share");
  report.metric("core.gather_share", gather_share, "share");
  report.metric("core.update_share", update_share, "share");
  report.metric("core.mutate_share", mutate_share, "share");
  report.metric("core.idle_share",
                1.0 - train_share - gather_share - update_share - mutate_share, "share");
  const double counted_flops =
      t.train_flops > 0.0 ? t.train_flops : flops_per_sample * trained_samples(spec);
  const double counted_gflops = counted_flops / t.wall_s / 1e9;
  report.metric("core.counted_gflops", counted_gflops, "GFLOP/s");
  report.metric("core.kernel_gap", lanes * lanes_rate / counted_gflops, "ratio");
  report.metric("core.lane_scaling", ctx.untraced_samples_per_s / ctx.one_lane_samples_per_s,
                "ratio");
  report.metric("core.epoch_ms_p50", quantile(t.epoch_ms, 0.5), "ms");
  report.metric("core.epoch_ms_p90", quantile(t.epoch_ms, 0.9), "ms");
  // A single-process run has no ranks and no master: both read 0 there.
  const double skew = t.slave_wall_s.empty()
                          ? 0.0
                          : quantile(t.slave_wall_s, 1.0) - quantile(t.slave_wall_s, 0.0);
  report.metric("core.rank_skew_ms", skew * 1e3, "ms");
  report.metric("core.master_mgmt_share", t.master_management_s / t.wall_s, "share");

  // -- evolve --------------------------------------------------------------------
  {
    const data::Dataset tiny = data::Dataset{Tensor::rand_uniform(b, arch.image_dim, rng, -1.0f, 1.0f),
                                             std::vector<std::uint32_t>(b, 0)};
    const evolve::Grid grid(static_cast<int>(config.grid_rows), static_cast<int>(config.grid_cols));
    core::CellTrainer cell(config, grid, 0, tiny, common::Rng(ctx.replay_seed + 2),
                           core::ExecContext{});
    std::vector<std::uint8_t> bytes;
    const double export_ms =
        median_ms("core.CellTrainer.export_genome", kReps, [&] { bytes = cell.export_genome(); });
    const double install_ms = median_ms("evolve.CellGenome.deserialize", kReps, [&] {
      (void)evolve::CellGenome::deserialize(bytes);
    });
    report.metric("evolve.genome_bytes", static_cast<double>(bytes.size()), "bytes");
    report.metric("evolve.export_ms", export_ms, "ms");
    report.metric("evolve.install_ms", install_ms, "ms");
    report.metric("evolve.adoptions_per_epoch", t.adoptions_per_epoch, "count");

    // -- minimpi -------------------------------------------------------------------
    ScopedSpan span("minimpi.exchange_replay");
    const ExchangeReplay ex = replay_exchange(4, bytes.size(), 12);
    report.metric("minimpi.exchange_ms", ex.exchange_ms, "ms");
    report.metric("minimpi.bytes_per_epoch", ex.bytes_per_epoch, "bytes");
    report.metric("minimpi.frames_per_epoch", ex.frames_per_epoch, "count");
    report.metric("minimpi.loopback_gbps", ex.bytes_per_epoch * 8.0 / (ex.exchange_ms * 1e-3) / 1e9,
                  "Gbit/s");
    report.metric("minimpi.rendezvous_ms", ex.rendezvous_ms, "ms");
  }

  // -- datastore -----------------------------------------------------------------
  {
    const std::string images = spec.dataset.idx_dir + "/train-images-idx3-ubyte";
    const double ingest_ms = median_ms("datastore.SampleStore.map_idx", 5, [&] {
      (void)datastore::SampleStore::map_idx(images);
    });
    report.metric("datastore.ingest_ms", ingest_ms, "ms");
    std::string error;
    const auto loaded = data::load_mnist_idx(spec.dataset.idx_dir, &error);
    report.check(loaded.has_value(), "IDX quartet does not load: " + error);
    if (loaded) {
      auto feed = datastore::make_feed(config.data_plane, loaded->first, b);
      common::Rng shuffle_rng(ctx.replay_seed + 3);
      feed->reshuffle(shuffle_rng);
      std::size_t next = 0;
      const double ms = median_ms("datastore.BatchFeed.batch", 200, [&] {
        (void)feed->batch(next++ % feed->batches_per_epoch());
      });
      report.metric("datastore.batch_us", ms * 1e3, "us");
    }
  }
}

}  // namespace perfbench
