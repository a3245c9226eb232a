// msv_perfbench: the repository's end-to-end benchmark (see README.md).
//
//   msv_perfbench --workload serve_read|drain_simdisk|ingest_mixed
//                 --seed N --seconds S --trace 0|1 [--out DIR]
//   msv_perfbench --selftest
//
// Prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans go to DIR/spans-<workload>-<seed>.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "oracle.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: msv_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] | --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::ProcessStartSec();  // set-up is timed from here
  perfbench::Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }

  if (selftest) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const std::string problem = perfbench::OracleSelfTest(seed);
      if (!problem.empty()) {
        std::fprintf(stderr, "oracle self-test (seed %llu): %s\n",
                     static_cast<unsigned long long>(seed), problem.c_str());
        return 1;
      }
    }
    std::printf("oracle self-test passed\n");
    return 0;
  }
  if (args.seconds <= 0) return Usage();

  perfbench::Report report;
  if (args.workload == "serve_read") {
    perfbench::RunServeRead(args, &report);
  } else if (args.workload == "drain_simdisk") {
    perfbench::RunDrainSimdisk(args, &report);
  } else if (args.workload == "ingest_mixed") {
    perfbench::RunIngestMixed(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The oracle itself is checked in every run, on a small table.
  const std::string problem = perfbench::OracleSelfTest(args.seed);
  report.Check(problem.empty(), "oracle self-test: " + problem);
  if (report.attempted == 0) report.Fail("no operation was attempted");
  report.Print();
  return 0;
}
