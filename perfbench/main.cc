// perfbench: the repository benchmark. One run builds a seeded TPC-H
// snapshot history, drives one workload through the public APIs for
// --seconds, checks every output, and prints a report followed by one JSON
// result line:
//
//   perfbench --workload <archive_sweep|groupby_recent|daemon_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. Run it from the root of
// a checkout: databases go to .bench_work/ there and are removed at exit.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<archive_sweep|groupby_recent|daemon_mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

void PrintJson(const perfbench::Outcome& out, bool trace) {
  const auto& metrics = trace ? out.per_layer : out.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (!have_workload || args.seconds < 1 || argc % 2 == 0) return Usage();

  rql::Status (*run)(const perfbench::RunArgs&, perfbench::Outcome*) = nullptr;
  if (args.workload == "archive_sweep") {
    run = perfbench::RunArchiveSweep;
  } else if (args.workload == "groupby_recent") {
    run = perfbench::RunGroupbyRecent;
  } else if (args.workload == "daemon_mixed") {
    run = perfbench::RunDaemonMixed;
  } else {
    return Usage();
  }

  namespace fs = std::filesystem;
  fs::create_directories(".bench_work");
  args.workdir = ".bench_work/" + args.workload + "-" + std::to_string(getpid());
  args.trace_path = ".bench_work/trace-" + args.workload + ".jsonl";
  fs::remove_all(args.workdir);
  fs::create_directories(args.workdir);

  perfbench::Outcome out;
  rql::Status status = run(args, &out);
  std::error_code ec;
  fs::remove_all(args.workdir, ec);
  if (!status.ok()) {
    for (const std::string& line : out.log) std::printf("%s\n", line.c_str());
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("workload %s seed %llu seconds %d trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const std::string& line : out.log) std::printf("%s\n", line.c_str());
  std::printf("failed_frac: %.6f (%lld of %lld operations)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0,
              static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));
  for (const auto& m : args.trace ? out.per_layer : out.end_to_end) {
    std::printf("  %-44s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintJson(out, args.trace);
  std::fflush(stdout);
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
