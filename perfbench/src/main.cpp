// perfbench — the repository benchmark's harness. perfbench/run.py builds it
// and calls it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench prepare --seed N --dir DIR       write the seeded IDX quartet
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --idx DIR --out DIR --server EXE [--source ID]
//   perfbench rank --spec F --out F --trace 0|1 [--checkpoint F]
//                                              one TCP rank (internal)
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    flags[key] = argv[i + 1];
  }
  return flags;
}

std::string self_exe() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  return n > 0 ? std::string(buffer, static_cast<std::size_t>(n)) : std::string();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench prepare|run|rank ...\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "rank") return perfbench::rank_main(argc, argv);
  auto flags = parse_flags(argc, argv);
  try {
    if (command == "prepare") {
      return perfbench::prepare_inputs(std::strtoull(flags["seed"].c_str(), nullptr, 10),
                                       flags["dir"]);
    }
    if (command == "run") {
      perfbench::RunArgs args;
      args.workload = flags["workload"];
      args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
      args.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
      args.trace = flags["trace"] == "1";
      args.idx_dir = flags["idx"];
      args.out_dir = flags["out"];
      args.server_exe = flags["server"];
      args.source = flags["source"];
      args.self_exe = self_exe();
      if (args.idx_dir.empty() || args.out_dir.empty() || args.server_exe.empty() ||
          args.seconds <= 0.0) {
        std::fprintf(stderr, "perfbench run: missing --idx/--out/--server/--seconds\n");
        return 2;
      }
      return perfbench::run_workload(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown command %s\n", command.c_str());
  return 2;
}
