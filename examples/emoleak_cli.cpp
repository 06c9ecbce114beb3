// emoleak_cli — command-line driver for the EmoLeak pipeline.
//
// Runs any dataset x device x channel x classifier combination and
// optionally writes a Markdown report, the extracted features (CSV /
// ARFF), and a serialized model. Examples:
//
//   emoleak_cli --dataset tess --phone oneplus7t --classifier logistic
//   emoleak_cli --dataset savee --speaker ear --classifier randomforest
//               --cv 10 --report run.md
//   emoleak_cli --dataset cremad --phone galaxys10 --fraction 0.3
//               --features features.csv --save-model model.txt
//   emoleak_cli --dataset tess --model model.txt        # evaluate a
//               pre-trained model file instead of training
//   emoleak_cli --scrape 9090                           # pull metrics
//               from a live serve_demo/NetServer in Prometheus text
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <type_traits>

#include "core/attack.h"
#include "net/client.h"
#include "obs/obs.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "core/report.h"
#include "ml/ensemble.h"
#include "ml/lmt.h"
#include "ml/logistic.h"
#include "ml/multiclass.h"
#include "ml/serialize.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace emoleak;

struct CliOptions {
  std::string dataset = "tess";
  std::string phone = "oneplus7t";
  std::string speaker = "loud";
  std::string classifier = "logistic";
  double fraction = 1.0;
  std::uint64_t seed = 43;
  std::size_t cv_folds = 0;  // 0 = 80/20 split
  std::size_t threads = 0;   // 0 = hardware concurrency, 1 = serial
  bool rate_cap = false;
  bool binned = false;  // histogram-binned tree induction
  std::string report_path;
  std::string features_path;
  std::string arff_path;
  std::string model_path;
  std::string load_model_path;
  std::string trace_path;
  bool metrics = false;
  std::string scrape_target;  ///< PORT or HOST:PORT (loopback only)
};

void usage() {
  std::cout <<
      "usage: emoleak_cli [options]\n"
      "  --dataset tess|savee|cremad     corpus to replay (default tess)\n"
      "  --phone oneplus7t|oneplus9|pixel5|galaxys10|galaxys21|galaxys21ultra\n"
      "  --speaker loud|ear              channel (default loud; ear => handheld)\n"
      "  --classifier logistic|multiclass|lmt|randomforest|randomsubspace\n"
      "  --fraction F                    corpus fraction in (0,1] (default 1)\n"
      "  --seed N                        experiment seed (default 43)\n"
      "  --cv K                          K-fold CV instead of the 80/20 split\n"
      "  --threads N                     worker threads for extraction/CV\n"
      "                                  (0 = all cores, 1 = serial; results\n"
      "                                  are identical at any thread count)\n"
      "  --rate-cap                      apply the Android 12 200 Hz cap\n"
      "  --binned                        train tree ensembles with\n"
      "                                  histogram-binned split finding\n"
      "                                  (faster on large captures; exact\n"
      "                                  Gini splits remain the default)\n"
      "  --report PATH                   write a Markdown report\n"
      "  --features PATH                 write extracted features as CSV\n"
      "  --arff PATH                     write extracted features as ARFF\n"
      "  --save-model PATH               serialize the trained classifier\n"
      "  --model PATH                    load a pre-trained model (from\n"
      "                                  --save-model) and evaluate it on\n"
      "                                  the captured data, skipping training\n"
      "  --trace PATH                    record scoped spans and write a\n"
      "                                  Chrome trace_event JSON file\n"
      "                                  (open in chrome://tracing / Perfetto)\n"
      "  --metrics                       print the metrics registry (counters,\n"
      "                                  gauges, histograms) on exit\n"
      "  --scrape PORT|HOST:PORT         connect to a running NetServer (e.g.\n"
      "                                  serve_demo --listen), pull its metrics\n"
      "                                  over the wire, and print them in\n"
      "                                  Prometheus text exposition format;\n"
      "                                  combine with --trace PATH to also pull\n"
      "                                  the server's span rings as a Chrome\n"
      "                                  trace file. HOST must be loopback.\n";
}

/// `text` as the value of `flag`. The whole string must be one finite
/// number of type T; an unsigned T takes no sign, so "-1" is refused
/// rather than wrapped. Throws ConfigError naming the flag.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  bool ok = error == std::errc{} && end == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw util::ConfigError{"invalid value for " + flag + ": '" + text + "'"};
  }
  return value;
}

/// "9090", "127.0.0.1:9090", "localhost:9090" -> 9090. The blocking
/// client only dials loopback, so any other host is rejected up front.
std::uint16_t parse_scrape_port(const std::string& target) {
  std::string port_str = target;
  const auto colon = target.rfind(':');
  if (colon != std::string::npos) {
    const std::string host = target.substr(0, colon);
    if (host != "127.0.0.1" && host != "localhost") {
      throw util::ConfigError{"--scrape host must be loopback, got: " + host};
    }
    port_str = target.substr(colon + 1);
  }
  const auto port = parse_number<unsigned long>("--scrape", port_str);
  if (port == 0 || port > 65535) {
    throw util::ConfigError{"--scrape port out of range: " + port_str};
  }
  return static_cast<std::uint16_t>(port);
}

/// Remote scrape: one kMetricsRequest (and optionally one
/// kTraceRequest) over a fresh connection, Prometheus text to stdout.
int run_scrape(const CliOptions& opts) {
  net::BlockingClient client{parse_scrape_port(opts.scrape_target)};
  client.set_recv_timeout(5000);

  client.send(serve::MetricsRequestMsg{});
  const auto metrics_reply = client.recv();
  if (!metrics_reply) throw util::DataError{"server closed before reply"};
  const auto* metrics = std::get_if<serve::MetricsReplyMsg>(&*metrics_reply);
  if (metrics == nullptr) {
    throw util::DataError{"unexpected reply to metrics request (old server?)"};
  }
  std::cout << obs::prometheus_text(metrics->snapshot);

  if (!opts.trace_path.empty()) {
    client.send(serve::TraceRequestMsg{});
    const auto trace_reply = client.recv();
    if (!trace_reply) throw util::DataError{"server closed before trace reply"};
    const auto* trace = std::get_if<serve::TraceReplyMsg>(&*trace_reply);
    if (trace == nullptr) {
      throw util::DataError{"unexpected reply to trace request (old server?)"};
    }
    std::ofstream out{opts.trace_path, std::ios::binary};
    if (!out) throw util::ConfigError{"cannot open " + opts.trace_path};
    out << trace->trace_json;
    std::cerr << "Wrote server trace to " << opts.trace_path;
    if (trace->dropped_spans != 0) {
      std::cerr << " (" << trace->dropped_spans
                << " spans dropped by ring wrap)";
    }
    std::cerr << "\n";
  }
  return EXIT_SUCCESS;
}

phone::PhoneProfile parse_phone(const std::string& name) {
  const std::map<std::string, phone::PhoneProfile> phones{
      {"oneplus7t", phone::oneplus_7t()},
      {"oneplus9", phone::oneplus_9()},
      {"pixel5", phone::pixel_5()},
      {"galaxys10", phone::galaxy_s10()},
      {"galaxys21", phone::galaxy_s21()},
      {"galaxys21ultra", phone::galaxy_s21_ultra()},
  };
  const auto it = phones.find(name);
  if (it == phones.end()) throw util::ConfigError{"unknown phone: " + name};
  return it->second;
}

audio::DatasetSpec parse_dataset(const std::string& name) {
  if (name == "tess") return audio::tess_spec();
  if (name == "savee") return audio::savee_spec();
  if (name == "cremad") return audio::cremad_spec();
  throw util::ConfigError{"unknown dataset: " + name};
}

std::unique_ptr<ml::Classifier> parse_classifier(const std::string& name,
                                                 bool binned) {
  if (name == "randomforest") {
    ml::RandomForestConfig cfg;
    cfg.tree.exact = !binned;
    return std::make_unique<ml::RandomForest>(cfg);
  }
  if (name == "randomsubspace") {
    ml::RandomSubspaceConfig cfg;
    cfg.tree.exact = !binned;
    return std::make_unique<ml::RandomSubspace>(cfg);
  }
  if (binned) {
    throw util::ConfigError{"--binned applies to randomforest/randomsubspace"};
  }
  if (name == "logistic") return std::make_unique<ml::LogisticRegression>();
  if (name == "multiclass") return std::make_unique<ml::OneVsRestLogistic>();
  if (name == "lmt") return std::make_unique<ml::LogisticModelTree>();
  throw util::ConfigError{"unknown classifier: " + name};
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions opts;
  const auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw util::ConfigError{std::string{"missing value for "} + argv[i]};
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dataset") opts.dataset = need_value(i);
    else if (arg == "--phone") opts.phone = need_value(i);
    else if (arg == "--speaker") opts.speaker = need_value(i);
    else if (arg == "--classifier") opts.classifier = need_value(i);
    else if (arg == "--fraction") opts.fraction = parse_number<double>(arg, need_value(i));
    else if (arg == "--seed") opts.seed = parse_number<std::uint64_t>(arg, need_value(i));
    else if (arg == "--cv") opts.cv_folds = parse_number<std::size_t>(arg, need_value(i));
    else if (arg == "--threads") opts.threads = parse_number<std::size_t>(arg, need_value(i));
    else if (arg == "--rate-cap") opts.rate_cap = true;
    else if (arg == "--binned") opts.binned = true;
    else if (arg == "--report") opts.report_path = need_value(i);
    else if (arg == "--features") opts.features_path = need_value(i);
    else if (arg == "--arff") opts.arff_path = need_value(i);
    else if (arg == "--save-model") opts.model_path = need_value(i);
    else if (arg == "--model") opts.load_model_path = need_value(i);
    else if (arg == "--trace") opts.trace_path = need_value(i);
    else if (arg == "--metrics") opts.metrics = true;
    else if (arg == "--scrape") opts.scrape_target = need_value(i);
    else if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(EXIT_SUCCESS);
    } else {
      throw util::ConfigError{"unknown option: " + arg};
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions opts = parse_args(argc, argv);
    if (!opts.scrape_target.empty()) return run_scrape(opts);
    if (!opts.trace_path.empty()) obs::set_trace_enabled(true);

    phone::PhoneProfile device = parse_phone(opts.phone);
    if (opts.rate_cap) device = phone::with_rate_cap(device, 200.0);
    core::ScenarioConfig scenario =
        opts.speaker == "ear"
            ? core::ear_speaker_scenario(parse_dataset(opts.dataset), device,
                                         opts.seed)
            : core::loudspeaker_scenario(parse_dataset(opts.dataset), device,
                                         opts.seed);
    scenario.corpus_fraction = opts.fraction;
    const util::Parallelism parallelism{.threads = opts.threads};
    scenario.pipeline.parallelism = parallelism;

    std::cout << "Capturing " << scenario.dataset.name << " via "
              << device.name << " ("
              << (opts.speaker == "ear" ? "ear speaker, handheld"
                                        : "loudspeaker, table-top")
              << ", fraction " << opts.fraction << ")...\n";
    const core::ExtractedData data = core::capture(scenario);
    std::cout << "  " << data.features.size() << " labelled regions, "
              << util::percent(data.extraction_rate) << " extraction rate\n";

    core::ClassifierResult result;
    std::unique_ptr<ml::Classifier> prototype;
    if (!opts.load_model_path.empty()) {
      // Serve-side handoff: evaluate a model trained in a different
      // process (ml::load_model_file rejects malformed files with
      // util::DataError) on this capture, without retraining.
      const std::unique_ptr<ml::Classifier> loaded =
          ml::load_model_file(opts.load_model_path);
      std::cout << "Evaluating pre-trained " << loaded->name() << " from "
                << opts.load_model_path << " on the full capture...\n";
      result.classifier = loaded->name();
      result.confusion = ml::ConfusionMatrix{data.features.class_count};
      for (std::size_t i = 0; i < data.features.size(); ++i) {
        result.confusion.add(data.features.y[i],
                             loaded->predict(data.features.x[i]));
      }
      result.accuracy = result.confusion.accuracy();
    } else {
      prototype = parse_classifier(opts.classifier, opts.binned);
      std::cout << "Evaluating " << prototype->name()
                << (opts.cv_folds >= 2
                        ? " (" + std::to_string(opts.cv_folds) + "-fold CV)"
                        : " (80/20 split)")
                << "...\n";
      result = core::evaluate_classical(*prototype, data.features, opts.seed,
                                        opts.cv_folds, parallelism);
    }
    std::cout << "  accuracy " << util::percent(result.accuracy)
              << " (random guess "
              << util::percent(1.0 / data.features.class_count) << ")\n\n"
              << util::render_confusion(result.confusion.counts(),
                                        data.features.class_names);

    if (!opts.report_path.empty()) {
      core::ReportInputs report;
      report.scenario = scenario;
      report.data = &data;
      report.results = {result};
      std::ofstream out{opts.report_path};
      out << core::render_report(report);
      std::cout << "\nWrote report to " << opts.report_path << "\n";
    }
    if (!opts.features_path.empty() || !opts.arff_path.empty()) {
      std::vector<std::string> labels;
      for (const int y : data.features.y) {
        labels.push_back(
            data.features.class_names[static_cast<std::size_t>(y)]);
      }
      if (!opts.features_path.empty()) {
        std::ofstream out{opts.features_path};
        util::write_csv(out, data.features.feature_names, data.features.x,
                        labels);
        std::cout << "Wrote features to " << opts.features_path << "\n";
      }
      if (!opts.arff_path.empty()) {
        std::ofstream out{opts.arff_path};
        util::write_arff(out, "emoleak", data.features.feature_names,
                         data.features.x, labels, data.features.class_names);
        std::cout << "Wrote ARFF to " << opts.arff_path << "\n";
      }
    }
    if (!opts.model_path.empty()) {
      if (!prototype) {
        throw util::ConfigError{"--save-model requires training (drop --model)"};
      }
      // Refit on everything so the exported model uses all the data.
      const std::unique_ptr<ml::Classifier> final_model = prototype->clone();
      final_model->fit(data.features);
      ml::save_model_file(opts.model_path, *final_model);
      std::cout << "Wrote model to " << opts.model_path << "\n";
    }
    if (!opts.trace_path.empty()) {
      obs::set_trace_enabled(false);
      obs::write_trace_file(opts.trace_path);
      std::cout << "Wrote trace to " << opts.trace_path;
      if (const std::uint64_t dropped = obs::trace_dropped()) {
        std::cout << " (" << dropped << " spans dropped by ring wrap)";
      }
      std::cout << "\n";
    }
    if (opts.metrics) {
      std::cout << "\nMetrics registry:\n"
                << obs::Registry::instance().render_text();
    }
    return EXIT_SUCCESS;
  } catch (const std::exception& error) {
    std::cerr << "emoleak_cli: " << error.what() << "\n\n";
    usage();
    return EXIT_FAILURE;
  }
}
