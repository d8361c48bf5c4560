#include "data/synthetic.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/scaler.h"

namespace treewm::data::synthetic {

namespace {

constexpr int kImageSide = 28;
constexpr size_t kImagePixels = static_cast<size_t>(kImageSide) * kImageSide;

/// A 2-D point in normalized [0,1]² image coordinates.
struct Point {
  double x;
  double y;
};

/// Squared distance from `p` to segment (a, b).
double SquaredDistanceToSegment(Point p, Point a, Point b) {
  const double abx = b.x - a.x;
  const double aby = b.y - a.y;
  const double apx = p.x - a.x;
  const double apy = p.y - a.y;
  const double len2 = abx * abx + aby * aby;
  double t = len2 > 0.0 ? (apx * abx + apy * aby) / len2 : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  const double dx = apx - t * abx;
  const double dy = apy - t * aby;
  return dx * dx + dy * dy;
}

/// Stroke template for a "2"-like glyph (polyline control points).
std::vector<Point> TwoTemplate() {
  return {{0.26, 0.30}, {0.35, 0.18}, {0.55, 0.14}, {0.70, 0.22}, {0.72, 0.38},
          {0.58, 0.52}, {0.40, 0.64}, {0.27, 0.78}, {0.73, 0.78}};
}

/// Stroke template for a "6"-like glyph.
std::vector<Point> SixTemplate() {
  return {{0.66, 0.14}, {0.50, 0.22}, {0.37, 0.36}, {0.30, 0.54}, {0.31, 0.70},
          {0.42, 0.82}, {0.58, 0.82}, {0.68, 0.70}, {0.66, 0.58}, {0.52, 0.52},
          {0.38, 0.58}, {0.33, 0.68}};
}

/// Renders a jittered, translated, rotated copy of `base` into `pixels`.
void RenderGlyph(const std::vector<Point>& base, Rng* rng, float* pixels) {
  // Per-instance geometric nuisance parameters.
  const double dx = rng->UniformRealRange(-0.10, 0.10);
  const double dy = rng->UniformRealRange(-0.10, 0.10);
  const double angle = rng->UniformRealRange(-0.22, 0.22);
  const double scale = rng->UniformRealRange(0.80, 1.12);
  const double thickness = rng->UniformRealRange(0.035, 0.055);
  const double amplitude = rng->UniformRealRange(0.55, 1.0);
  const double cos_a = std::cos(angle);
  const double sin_a = std::sin(angle);

  std::vector<Point> pts;
  pts.reserve(base.size());
  for (const Point& p : base) {
    // Jitter control points slightly so strokes differ shape-wise too.
    double jx = p.x + rng->UniformRealRange(-0.03, 0.03);
    double jy = p.y + rng->UniformRealRange(-0.03, 0.03);
    // Rotate/scale around the glyph center, then translate.
    const double cx = jx - 0.5;
    const double cy = jy - 0.5;
    pts.push_back({0.5 + scale * (cos_a * cx - sin_a * cy) + dx,
                   0.5 + scale * (sin_a * cx + cos_a * cy) + dy});
  }

  const double inv_two_sigma2 = 1.0 / (2.0 * thickness * thickness);
  for (int row = 0; row < kImageSide; ++row) {
    for (int col = 0; col < kImageSide; ++col) {
      const Point pixel{(col + 0.5) / kImageSide, (row + 0.5) / kImageSide};
      double best = 1e9;
      for (size_t s = 0; s + 1 < pts.size(); ++s) {
        best = std::min(best, SquaredDistanceToSegment(pixel, pts[s], pts[s + 1]));
      }
      const double intensity = amplitude * std::exp(-best * inv_two_sigma2);
      pixels[row * kImageSide + col] = static_cast<float>(intensity);
    }
  }
}

/// Builds a label sequence with exactly round(positive_fraction * n)
/// positives, shuffled deterministically.
std::vector<int> MakeLabelSequence(size_t n, double positive_fraction, Rng* rng) {
  const size_t num_pos = static_cast<size_t>(
      std::llround(positive_fraction * static_cast<double>(n)));
  std::vector<int> labels(n, kNegative);
  for (size_t i = 0; i < std::min(num_pos, n); ++i) labels[i] = kPositive;
  rng->Shuffle(&labels);
  return labels;
}

}  // namespace

Dataset MakeMnist26Like(uint64_t seed, size_t num_rows) {
  Rng rng(seed);
  Dataset dataset(kImagePixels);
  dataset.set_name("mnist2-6-like");
  dataset.Reserve(num_rows);
  // Paper: 51%/49% distribution; make "6"-like the positive class.
  std::vector<int> labels = MakeLabelSequence(num_rows, 0.51, &rng);
  const std::vector<Point> two = TwoTemplate();
  const std::vector<Point> six = SixTemplate();
  std::vector<float> pixels(kImagePixels);
  for (size_t i = 0; i < num_rows; ++i) {
    RenderGlyph(labels[i] == kPositive ? six : two, &rng, pixels.data());
    for (float& v : pixels) {
      v = std::clamp(v + static_cast<float>(rng.Gaussian(0.0, 0.13)), 0.0f, 1.0f);
    }
    Status st = dataset.AddRow(pixels, labels[i]);
    assert(st.ok());
    (void)st;  // discard ok: asserted above; generator rows match the schema by construction
  }
  return dataset;
}

Dataset MakeBreastCancerLike(uint64_t seed, size_t num_rows) {
  constexpr size_t kFeatures = 30;
  constexpr size_t kLatent = 6;
  Rng rng(seed);
  Dataset dataset(kFeatures);
  dataset.set_name("breast-cancer-like");
  dataset.Reserve(num_rows);

  // Shared loading matrix creates inter-feature correlation (real tumor
  // measurements are strongly correlated, e.g. radius/area/perimeter).
  std::vector<double> loadings(kFeatures * kLatent);
  for (double& w : loadings) w = rng.Gaussian(0.0, 0.55);
  // Class-mean offset; magnitude tuned so an RF reaches ≈0.95 accuracy.
  std::vector<double> offset(kFeatures);
  for (double& o : offset) o = rng.Gaussian(0.0, 0.85);

  std::vector<int> labels = MakeLabelSequence(num_rows, 0.63, &rng);
  std::vector<double> latent(kLatent);
  std::vector<float> row(kFeatures);
  for (size_t i = 0; i < num_rows; ++i) {
    for (double& z : latent) z = rng.Gaussian();
    const double side = labels[i] == kPositive ? 0.75 : -0.75;
    for (size_t j = 0; j < kFeatures; ++j) {
      double v = side * offset[j];
      for (size_t k = 0; k < kLatent; ++k) v += loadings[j * kLatent + k] * latent[k];
      v += rng.Gaussian(0.0, 0.45);
      row[j] = static_cast<float>(v);
    }
    Status st = dataset.AddRow(row, labels[i]);
    assert(st.ok());
    (void)st;  // discard ok: asserted above; generator rows match the schema by construction
  }
  MinMaxScaler scaler;
  Status st = scaler.FitTransform(&dataset);
  assert(st.ok());
  (void)st;  // discard ok: asserted above; scaling a freshly built dataset cannot fail
  return dataset;
}

Dataset MakeIjcnn1Like(uint64_t seed, size_t num_rows) {
  constexpr size_t kFeatures = 22;
  constexpr size_t kLatent = 4;
  Rng rng(seed);
  Dataset dataset(kFeatures);
  dataset.set_name("ijcnn1-like");
  dataset.Reserve(num_rows);

  // Features are noisy mixtures of a low-dimensional latent state (real
  // ijcnn1 features are redundant sensor readings of one physical process).
  // Redundancy is what lets trees restricted to sqrt(d) features still see
  // the whole signal. The label is a rugged multi-frequency function of the
  // latents thresholded at the 90th percentile (Table 1: 10%/90% split),
  // which forces deep, leaf-hungry trees — the property behind ijcnn1's
  // forgery-hardness result (§4.2.2).
  struct Mix {
    size_t latent_a;
    size_t latent_b;
    double weight_a;
    double weight_b;
  };
  std::vector<Mix> mixes(kFeatures);
  for (size_t j = 0; j < kFeatures; ++j) {
    mixes[j] = {static_cast<size_t>(rng.UniformInt(kLatent)),
                static_cast<size_t>(rng.UniformInt(kLatent)),
                rng.UniformRealRange(0.6, 1.0), rng.UniformRealRange(0.0, 0.4)};
  }
  struct SineTerm {
    size_t latent;
    double amplitude;
    double frequency;
    double phase;
  };
  std::vector<SineTerm> sines;
  for (int t = 0; t < 6; ++t) {
    sines.push_back({static_cast<size_t>(rng.UniformInt(kLatent)),
                     rng.UniformRealRange(0.8, 1.4), rng.UniformRealRange(5.0, 11.0),
                     rng.UniformRealRange(0.0, 6.28318)});
  }

  std::vector<std::vector<float>> rows(num_rows, std::vector<float>(kFeatures));
  std::vector<double> scores(num_rows);
  std::vector<double> latent(kLatent);
  for (size_t i = 0; i < num_rows; ++i) {
    for (double& z : latent) z = rng.UniformReal();
    for (size_t j = 0; j < kFeatures; ++j) {
      const Mix& m = mixes[j];
      double v = m.weight_a * latent[m.latent_a] + m.weight_b * latent[m.latent_b] +
                 rng.Gaussian(0.0, 0.02);
      rows[i][j] = static_cast<float>(std::clamp(v, 0.0, 1.4));
    }
    double s = 0.0;
    for (const SineTerm& term : sines) {
      s += term.amplitude * std::sin(term.frequency * latent[term.latent] + term.phase);
    }
    s += 1.1 * latent[0] * latent[1];
    scores[i] = s;
  }
  // Threshold at the 90th percentile so exactly ~10% are positive (Table 1).
  std::vector<double> sorted = scores;
  const size_t cut = num_rows - num_rows / 10;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(cut),
                   sorted.end());
  const double threshold = sorted[cut];
  for (size_t i = 0; i < num_rows; ++i) {
    Status st = dataset.AddRow(rows[i], scores[i] >= threshold ? kPositive : kNegative);
    assert(st.ok());
    (void)st;  // discard ok: asserted above; generator rows match the schema by construction
  }
  MinMaxScaler scaler;
  Status st = scaler.FitTransform(&dataset);
  assert(st.ok());
  (void)st;  // discard ok: asserted above; scaling a freshly built dataset cannot fail
  return dataset;
}

Dataset MakeBlobs(uint64_t seed, size_t num_rows, size_t num_features,
                  double class_separation, double positive_fraction) {
  Rng rng(seed);
  Dataset dataset(num_features);
  dataset.set_name("blobs");
  dataset.Reserve(num_rows);
  std::vector<int> labels = MakeLabelSequence(num_rows, positive_fraction, &rng);
  std::vector<float> row(num_features);
  for (size_t i = 0; i < num_rows; ++i) {
    const double center = labels[i] == kPositive ? class_separation / 2.0
                                                 : -class_separation / 2.0;
    for (float& v : row) v = static_cast<float>(rng.Gaussian(center, 1.0));
    Status st = dataset.AddRow(row, labels[i]);
    assert(st.ok());
    (void)st;  // discard ok: asserted above; generator rows match the schema by construction
  }
  MinMaxScaler scaler;
  Status st = scaler.FitTransform(&dataset);
  assert(st.ok());
  (void)st;  // discard ok: asserted above; scaling a freshly built dataset cannot fail
  return dataset;
}

Dataset MakeXor(uint64_t seed, size_t num_rows, size_t num_features) {
  assert(num_features >= 2);
  Rng rng(seed);
  Dataset dataset(num_features);
  dataset.set_name("xor");
  dataset.Reserve(num_rows);
  std::vector<float> row(num_features);
  for (size_t i = 0; i < num_rows; ++i) {
    for (float& v : row) v = static_cast<float>(rng.UniformReal());
    const bool a = row[0] > 0.5f;
    const bool b = row[1] > 0.5f;
    Status st = dataset.AddRow(row, (a != b) ? kPositive : kNegative);
    assert(st.ok());
    (void)st;  // discard ok: asserted above; generator rows match the schema by construction
  }
  return dataset;
}

std::vector<std::string> KnownDatasetNames() {
  return {"mnist2-6", "breast-cancer", "ijcnn1"};
}

Result<Dataset> MakeByName(const std::string& name, uint64_t seed, size_t num_rows) {
  const std::string key = StrToLower(name);
  if (key == "mnist2-6" || key == "mnist26" || key == "mnist2-6-like") {
    return MakeMnist26Like(seed, num_rows == 0 ? kMnist26Rows : num_rows);
  }
  if (key == "breast-cancer" || key == "breast_cancer" || key == "breast-cancer-like") {
    return MakeBreastCancerLike(seed, num_rows == 0 ? kBreastCancerRows : num_rows);
  }
  if (key == "ijcnn1" || key == "ijcnn1-like") {
    return MakeIjcnn1Like(seed, num_rows == 0 ? kIjcnn1Rows : num_rows);
  }
  return Status::NotFound("unknown dataset name: " + name);
}

std::string RenderImageAscii(const std::vector<float>& features) {
  assert(features.size() == kImagePixels);
  static constexpr const char kRamp[] = " .:-=+*#%@";
  constexpr int kRampMax = 9;
  std::string out;
  out.reserve(kImagePixels + kImageSide);
  for (int row = 0; row < kImageSide; ++row) {
    for (int col = 0; col < kImageSide; ++col) {
      const float v = std::clamp(features[static_cast<size_t>(row) * kImageSide + col],
                                 0.0f, 1.0f);
      out.push_back(kRamp[static_cast<int>(v * kRampMax + 0.5f)]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace treewm::data::synthetic
