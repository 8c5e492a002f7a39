// perfbench: the repo benchmark's native program.
//
//   perfbench gen --workload W --seed N --seconds S --out DIR
//   perfbench run --workload W --inputs DIR --seconds S --trace 0|1
//                 --socket PATH [--trace-out FILE]
//
// `gen` writes the seeded inputs and reference answers (untimed); `run`
// reads only those files, measures, checks every answer and prints the
// result line. perfbench/run.py builds this program and drives both.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "bench_util.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --seconds S "
               "--out DIR\n"
               "       perfbench run --workload W --inputs DIR --seconds S "
               "--trace 0|1 --socket PATH [--trace-out FILE]\n"
               "workloads: %s\n",
               perfbench::WorkloadNames().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || (argc % 2) != 0) return Usage();
  std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  auto flag = [&](const char* name) {
    auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };

  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(
      flag("--workload"));
  double seconds = std::atof(flag("--seconds").c_str());
  if (spec == nullptr || !(seconds > 0.0)) return Usage();

  if (command == "gen") {
    if (flag("--seed").empty() || flag("--out").empty()) return Usage();
    uint64_t seed = std::strtoull(flag("--seed").c_str(), nullptr, 10);
    return perfbench::Generate(*spec, seed, seconds, flag("--out")) ? 0 : 1;
  }
  if (command == "run") {
    perfbench::RunConfig config;
    config.spec = spec;
    config.inputs = flag("--inputs");
    config.seconds = seconds;
    config.trace = flag("--trace") == "1";
    size_t cores = std::max(1u, std::thread::hardware_concurrency());
    config.threads = std::min<size_t>(4, cores);
    config.clients = cores;
    config.socket = flag("--socket");
    config.trace_out = flag("--trace-out");
    if (config.inputs.empty() || config.socket.empty()) return Usage();
    return perfbench::Run(config);
  }
  return Usage();
}
