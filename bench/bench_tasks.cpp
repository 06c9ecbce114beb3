// Multi-task attack surface + mitigation study.
//
// Trains the four built-in task heads (emotion, speaker, gender, media
// fingerprint) from one simulated capture posture, registers them in a
// single serve::ModelRegistry, and reports held-out accuracy per task.
// Then sweeps Touchtone-style capture-side mitigations (sample-rate
// caps, low-pass filtering) and prints the accuracy-vs-mitigation
// table: how much of each leak survives each defense level.
//
// `--json PATH` emits a machine-readable report for
// scripts/bench_compare.py --tasks (baseline: BENCH_tasks.json).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "serve/model_registry.h"
#include "tasks/mitigation.h"
#include "tasks/train.h"
#include "util/table.h"

namespace {

using namespace emoleak;

struct MitigationLevel {
  std::string label;
  tasks::MitigationConfig config;
};

/// The sweep: none -> Android-12 rate cap -> aggressive cap -> a
/// Touchtone-style low-pass that removes the speech band outright.
std::vector<MitigationLevel> mitigation_levels() {
  std::vector<MitigationLevel> levels;
  levels.push_back({"none (420 Hz)", {}});
  levels.push_back({"rate cap 200 Hz", {.target_rate_hz = 200.0}});
  levels.push_back({"rate cap 100 Hz", {.target_rate_hz = 100.0}});
  levels.push_back(
      {"low-pass 50 Hz + cap 200 Hz",
       {.lowpass_hz = 50.0, .target_rate_hz = 200.0}});
  levels.push_back({"low-pass 20 Hz + cap 50 Hz",
                    {.lowpass_hz = 20.0, .target_rate_hz = 50.0}});
  return levels;
}

struct SweepRow {
  std::string label;
  std::vector<tasks::TrainedTask> tasks;
};

void write_json(const std::string& path, const std::vector<SweepRow>& rows) {
  std::ofstream out{path};
  out << "{\n  \"levels\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << "    {\n      \"label\": \"" << rows[r].label << "\",\n"
        << "      \"tasks\": {\n";
    for (std::size_t t = 0; t < rows[r].tasks.size(); ++t) {
      const tasks::TrainedTask& task = rows[r].tasks[t];
      out << "        \"" << task.spec.name << "\": {\"accuracy\": "
          << util::fixed(task.accuracy, 4)
          << ", \"train_rows\": " << task.train_rows
          << ", \"test_rows\": " << task.test_rows << "}";
      out << (t + 1 < rows[r].tasks.size() ? ",\n" : "\n");
    }
    out << "      }\n    }" << (r + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::BenchOptions::parse(
      argc, argv, bench::BenchOptions::Extra::kJson);

  bench::print_header(
      "Tasks", "multi-task attack heads + capture-side mitigation sweep "
               "(TESS, loudspeaker, OnePlus 7T)");

  tasks::TaskTrainConfig config;
  config.scenario = core::loudspeaker_scenario(
      audio::tess_spec(), phone::oneplus_7t(), bench::kBenchSeed);
  config.scenario.corpus_fraction = opts.fraction(1.0);
  if (opts.quick) config.media_repetitions = 3;

  std::vector<SweepRow> rows;
  for (const MitigationLevel& level : mitigation_levels()) {
    config.mitigation = level.config;
    rows.push_back({level.label, tasks::train_builtin_tasks(config)});
    std::cout << "trained level: " << level.label << "\n";
  }

  // Serve-side check: all four heads live in one registry, each under
  // its own name, emotion (registered first) as the default.
  serve::ModelRegistry registry;
  const std::vector<std::uint32_t> versions =
      tasks::register_tasks(registry, rows.front().tasks);
  std::cout << "\nregistered models:\n";
  for (const serve::ModelRegistry::NameInfo& info : registry.stats()) {
    std::cout << "  " << info.name << "  v" << info.active_version << " ("
              << info.versions << " version" << (info.versions == 1 ? "" : "s")
              << ")\n";
  }

  std::cout << "\nheld-out accuracy per task (unmitigated):\n";
  for (const tasks::TrainedTask& task : rows.front().tasks) {
    std::cout << "  " << task.spec.name << "  "
              << util::percent(task.accuracy, 1) << "  (" << task.train_rows
              << " train / " << task.test_rows << " test rows)\n";
  }

  std::cout << "\naccuracy vs mitigation:\n";
  std::cout << "  mitigation                    ";
  for (const tasks::TrainedTask& task : rows.front().tasks) {
    std::cout << "  " << task.spec.name;
  }
  std::cout << "\n";
  for (const SweepRow& row : rows) {
    std::cout << "  " << row.label;
    for (std::size_t pad = row.label.size(); pad < 30; ++pad) std::cout << ' ';
    for (std::size_t t = 0; t < row.tasks.size(); ++t) {
      const std::string cell = row.tasks[t].test_rows == 0
                                   ? std::string{"--"}
                                   : util::percent(row.tasks[t].accuracy, 1);
      std::cout << "  " << cell;
      for (std::size_t pad = cell.size();
           pad < row.tasks[t].spec.name.size(); ++pad) {
        std::cout << ' ';
      }
    }
    std::cout << "\n";
  }
  std::cout << "\nShape check: rate caps alone degrade the emotion head "
               "but leave every task well above chance (the paper's §VI-B "
               "argument against the Android 200 Hz cap); only the "
               "aggressive low-pass below the residual speech band starts "
               "collapsing the coarser heads.\n";

  if (!opts.json_path.empty()) {
    write_json(opts.json_path, rows);
    std::cout << "wrote " << opts.json_path << "\n";
  }
  return 0;
}
