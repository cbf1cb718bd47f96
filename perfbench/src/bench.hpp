// Shared declarations of the benchmark harness.
//
// Two workloads, each training the paper's Table I nets and then serving a
// paper-arch 2x2 mixture from a server process:
//
//   paper-threads  3x3 torus, batch 100, `threads` backend on 4 lanes; serves
//                  a 2x2 grid trained for 5 epochs on the same data;
//   paper-tcp      2x2 torus, batch 16, master + 4 slave processes over
//                  loopback TCP (`distributed-tcp`); serves the grid it trained.
//
// `run` measures one workload and prints one JSON result line; `rank` is the
// body of one TCP rank process; `prepare` writes the seeded IDX quartet.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "util.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string idx_dir;     ///< the seeded IDX quartet (written by `prepare`)
  std::string out_dir;     ///< scratch files, the trace and the fitness memo
  std::string self_exe;    ///< this binary (re-executed as TCP ranks)
  std::string server_exe;  ///< the serving daemon
  std::string source;      ///< identity of the measured sources (git SHA / tree hash)
};

/// Seeds the harness derives from the benchmark seed. The program under test
/// only ever sees the inputs built from them.
struct Seeds {
  std::uint64_t data = 0;      ///< synthetic IDX generator
  std::uint64_t train = 0;     ///< TrainingConfig::seed
  std::uint64_t requests = 0;  ///< first serve request seed
};
Seeds derive_seeds(std::uint64_t seed);

/// Training samples one run consumes: cells x epochs x batches x batch size.
double trained_samples(const cellgan::core::RunSpec& spec);

/// Paper-arch specs of the two workloads over the IDX quartet in `idx_dir`.
cellgan::core::RunSpec threads_spec(const std::string& idx_dir, std::uint64_t train_seed,
                                    std::uint32_t epochs, std::size_t lanes);
cellgan::core::RunSpec tcp_spec(const std::string& idx_dir, std::uint64_t train_seed,
                                std::uint32_t epochs);

/// What one training run measured.
struct TrainSample {
  double wall_s = 0.0;         ///< RunResult::wall_s (rank 0 for TCP)
  double setup_s = 0.0;        ///< elapsed - wall_s
  double samples_per_s = 0.0;
  double train_flops = 0.0;
  double virtual_s = 0.0;
  int best_cell = 0;
  std::vector<double> g_fitnesses;
  std::vector<double> d_fitnesses;
  /// Cell-routine wall seconds summed over lanes (threads) or slaves (TCP).
  cellgan::common::Profiler routines;
  double master_management_s = 0.0;  ///< TCP rank 0 only
  std::vector<double> slave_wall_s;  ///< TCP only
  std::vector<double> epoch_ms;      ///< traced runs: epoch durations
  double adoptions_per_epoch = 0.0;  ///< traced runs
  double peak_rss_mb = 0.0;          ///< TCP: sum over rank processes
};

/// Held across the training phase so the serving phase can compare served
/// bytes with Session::sample_best on the very run that produced the model.
struct TrainedModel {
  std::unique_ptr<cellgan::core::Session> session;
  cellgan::core::RunResult result;
  std::string checkpoint_path;
};

/// Serving phase of a workload: spawn the server on `model`'s checkpoint,
/// measure set-up and the light open-loop level, and (traced runs) the heavy
/// level and the capacity probes. Fills latency_p50_ms.light or the serve.*
/// layer metrics.
struct ServeOutcome {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double occupancy_heavy = 0.0;
};
ServeOutcome run_serving(const RunArgs& args, TrainedModel& model, Report& report);

/// Layer replays at the workload's shapes (traced runs only): `lanes`
/// concurrent trainers, `serve_rows` the mean rows of a served forward.
struct LayerContext {
  const cellgan::core::RunSpec* spec = nullptr;
  std::size_t lanes = 4;
  double serve_rows = 8.0;
  const TrainSample* traced = nullptr;  ///< the traced training run
  double untraced_samples_per_s = 0.0;
  double one_lane_samples_per_s = 0.0;
  std::uint64_t replay_seed = 0;
};
void run_layer_replays(const LayerContext& context, Report& report);

int run_workload(const RunArgs& args);
int rank_main(int argc, char** argv);
int prepare_inputs(std::uint64_t seed, const std::string& dir);

}  // namespace perfbench
