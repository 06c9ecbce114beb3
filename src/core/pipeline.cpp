#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "obs/obs.h"
#include "util/error.h"
#include "util/workspace.h"

namespace emoleak::core {

std::vector<LabelledRegion> label_regions(const std::vector<Region>& regions,
                                          const phone::Recording& recording) {
  std::vector<LabelledRegion> out;
  out.reserve(regions.size());
  for (const Region& r : regions) {
    std::size_t best_overlap = 0;
    std::size_t best_idx = 0;
    for (std::size_t s = 0; s < recording.schedule.size(); ++s) {
      const phone::ScheduledUtterance& u = recording.schedule[s];
      const std::size_t lo = std::max(r.start, u.start_sample);
      const std::size_t hi = std::min(r.end, u.end_sample);
      const std::size_t overlap = hi > lo ? hi - lo : 0;
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best_idx = s;
      }
    }
    if (best_overlap == 0) continue;  // false alarm, no playback there
    const phone::ScheduledUtterance& u = recording.schedule[best_idx];
    out.push_back(LabelledRegion{r, best_idx, u.emotion, u.speaker_id});
  }
  return out;
}

double extraction_rate(const std::vector<LabelledRegion>& labelled,
                       const phone::Recording& recording) {
  if (recording.schedule.empty()) return 0.0;
  std::set<std::size_t> matched;
  for (const LabelledRegion& lr : labelled) matched.insert(lr.schedule_index);
  return static_cast<double>(matched.size()) /
         static_cast<double>(recording.schedule.size());
}

void PipelineConfig::validate() const {
  detector.validate();
  if (image_size == 0) throw util::ConfigError{"PipelineConfig: image_size == 0"};
  stft.validate();
}

ExtractedData extract(const phone::Recording& recording,
                      const PipelineConfig& config) {
  config.validate();
  if (recording.rate_hz <= 0.0) {
    throw util::DataError{"extract: recording rate must be > 0"};
  }
  OBS_SPAN("pipeline.extract");

  const SpeechRegionDetector detector{config.detector};
  std::vector<Region> regions;
  {
    OBS_SPAN_ARG("pipeline.detect", "samples", recording.accel.size());
    regions = detector.detect(recording.accel, recording.rate_hz);
  }
  const std::vector<LabelledRegion> labelled =
      label_regions(regions, recording);

  ExtractedData data;
  data.image_size = config.image_size;
  data.regions_detected = regions.size();
  data.utterances_total = recording.schedule.size();
  data.extraction_rate = extraction_rate(labelled, recording);

  // Class indices follow the dataset's emotion list.
  const std::vector<audio::Emotion>& emotions = recording.dataset.emotions;
  const auto class_of = [&emotions](audio::Emotion e) {
    for (std::size_t i = 0; i < emotions.size(); ++i) {
      if (emotions[i] == e) return static_cast<int>(i);
    }
    throw util::DataError{"extract: emotion not in dataset spec"};
  };

  data.features.class_count = static_cast<int>(emotions.size());
  data.features.class_names = audio::emotion_names(emotions);
  data.features.feature_names = features::feature_names();

  // Per-region extraction is pure (no RNG, no shared state), so regions
  // fan out across the pool; results are reduced in region order below,
  // which keeps the output bit-identical to the serial loop.
  struct RegionOutput {
    std::vector<double> features;
    std::vector<double> spectrogram;
    bool valid = false;
  };
  const std::span<const double> accel{recording.accel};
  std::vector<RegionOutput> outputs = util::parallel_map(
      config.parallelism, labelled.size(), [&](std::size_t i) {
        OBS_SPAN_ARG("pipeline.region", "index", i);
        const LabelledRegion& lr = labelled[i];
        // Features always come from the *raw* samples (paper Table I:
        // even a 1 Hz high-pass destroys the information).
        const std::span<const double> region =
            accel.subspan(lr.region.start, lr.region.length());
        // Per-worker scratch arena: after the first few regions warm it
        // up, extraction runs without heap allocation (beyond the
        // returned feature/spectrogram vectors themselves).
        util::Workspace& ws = util::thread_workspace();
        const util::Workspace::Scope scope{ws};
        RegionOutput out;
        out.features =
            features::extract_features(region, recording.rate_hz, ws);
        // Paper §IV-D1: invalid entries (NaN/inf) are removed up front —
        // done here so feature rows and spectrograms stay aligned.
        out.valid = std::all_of(out.features.begin(), out.features.end(),
                                [](double v) { return std::isfinite(v); });
        if (!out.valid) return out;

        // Spectrogram image of the same raw region.
        out.spectrogram = dsp::region_image(region, recording.rate_hz,
                                            config.stft, config.image_size, ws);
        return out;
      });

  for (std::size_t i = 0; i < labelled.size(); ++i) {
    if (!outputs[i].valid) continue;
    data.features.x.push_back(std::move(outputs[i].features));
    data.features.y.push_back(class_of(labelled[i].emotion));
    data.speaker_ids.push_back(labelled[i].speaker_id);
    data.spectrograms.push_back(std::move(outputs[i].spectrogram));
  }
  return data;
}

}  // namespace emoleak::core
