// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <decompose-skewed|churn-replicated>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Inputs are generated from --seed; the program under test only ever sees
// the generated graphs and batches. --trace 0 measures the end-to-end
// metrics; --trace 1 measures the per-layer breakdown (benchmark-side
// spans around calls into each layer, plus the counters the program
// already returns) next to an untraced pass of the same run. Every output
// is checked; a failed check exits non-zero. Normally invoked through
// perfbench/run.py, which builds this binary first.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunConfig* config) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     config->seconds > 0.0 && config->seconds <= 600.0;
    } else if (flag == "--trace") {
      config->trace = value == "1";
    } else if (flag == "--work-dir") {
      config->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return have_workload && have_seed && have_seconds &&
         !config->work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  perfbench::Report report(config);
  if (config.workload == "decompose-skewed") {
    perfbench::RunDecomposeSkewed(config, report);
  } else if (config.workload == "churn-replicated") {
    perfbench::RunChurnReplicated(config, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  return report.Finish();
}
