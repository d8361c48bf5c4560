#include "io/model_io.h"

#include "common/string_util.h"

namespace treewm::io {

namespace {

Status CheckVersion(const JsonValue& json) {
  if (!json.is_object()) return Status::ParseError("model document must be an object");
  TREEWM_ASSIGN_OR_RETURN(int64_t version, json.GetInt64("format_version"));
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported format version %lld (expected %d)",
                  static_cast<long long>(version), kFormatVersion));
  }
  return Status::OK();
}

}  // namespace

Status SaveForest(const forest::RandomForest& forest, const std::string& path) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("format_version", JsonValue(kFormatVersion));
  doc.Set("kind", JsonValue("treewm.forest"));
  doc.Set("forest", forest.ToJson());
  return WriteStringToFile(path, doc.Dump());
}

Result<forest::RandomForest> LoadForest(const std::string& path) {
  TREEWM_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  TREEWM_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  TREEWM_RETURN_IF_ERROR(CheckVersion(doc));
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* forest_json, doc.Get("forest"));
  return forest::RandomForest::FromJson(*forest_json);
}

JsonValue DatasetToJson(const data::Dataset& dataset) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("name", JsonValue(dataset.name()));
  out.Set("num_features", JsonValue(dataset.num_features()));
  JsonValue rows = JsonValue::MakeArray();
  JsonValue labels = JsonValue::MakeArray();
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    JsonValue row = JsonValue::MakeArray();
    for (float v : dataset.Row(i)) row.Append(JsonValue::FromFloat(v));
    rows.Append(std::move(row));
    labels.Append(JsonValue(dataset.Label(i)));
  }
  out.Set("rows", std::move(rows));
  out.Set("labels", std::move(labels));
  return out;
}

Result<data::Dataset> DatasetFromJson(const JsonValue& json) {
  if (!json.is_object()) return Status::ParseError("dataset must be an object");
  // A truncated or bit-flipped bundle must surface ParseError, never trip a
  // typed-accessor assert: checked conversions throughout.
  TREEWM_ASSIGN_OR_RETURN(int64_t num_features, json.GetInt64("num_features"));
  if (num_features < 0) {
    return Status::ParseError("'num_features' must be non-negative");
  }
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* rows, json.GetArray("rows"));
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* labels, json.GetArray("labels"));
  if (rows->AsArray().size() != labels->AsArray().size()) {
    return Status::ParseError("rows/labels must be parallel arrays");
  }
  data::Dataset dataset(static_cast<size_t>(num_features));
  if (const JsonValue* name = json.Find("name"); name != nullptr && name->is_string()) {
    dataset.set_name(name->AsString());
  }
  std::vector<float> row;
  for (size_t i = 0; i < rows->AsArray().size(); ++i) {
    const JsonValue& row_json = rows->AsArray()[i];
    if (!row_json.is_array()) return Status::ParseError("row must be an array");
    row.clear();
    for (const JsonValue& v : row_json.AsArray()) {
      TREEWM_ASSIGN_OR_RETURN(const float value, v.ToFloat());
      row.push_back(value);
    }
    TREEWM_ASSIGN_OR_RETURN(const int label, labels->AsArray()[i].ToInt());
    TREEWM_RETURN_IF_ERROR(dataset.AddRow(row, label));
  }
  return dataset;
}

WatermarkBundle BundleFrom(const core::WatermarkedModel& watermarked) {
  return WatermarkBundle{watermarked.model, watermarked.signature,
                         watermarked.trigger_set};
}

JsonValue BundleToJson(const WatermarkBundle& bundle) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("format_version", JsonValue(kFormatVersion));
  doc.Set("kind", JsonValue("treewm.watermark_bundle"));
  doc.Set("forest", bundle.model.ToJson());
  doc.Set("signature", bundle.signature.ToJson());
  doc.Set("trigger_set", DatasetToJson(bundle.trigger_set));
  return doc;
}

Result<WatermarkBundle> BundleFromJson(const JsonValue& json) {
  TREEWM_RETURN_IF_ERROR(CheckVersion(json));
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* forest_json, json.Get("forest"));
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* signature_json, json.Get("signature"));
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* trigger_json, json.Get("trigger_set"));
  TREEWM_ASSIGN_OR_RETURN(forest::RandomForest model,
                          forest::RandomForest::FromJson(*forest_json));
  TREEWM_ASSIGN_OR_RETURN(core::Signature signature,
                          core::Signature::FromJson(*signature_json));
  TREEWM_ASSIGN_OR_RETURN(data::Dataset trigger, DatasetFromJson(*trigger_json));
  if (signature.length() != model.num_trees()) {
    return Status::ParseError("bundle signature length != model tree count");
  }
  return WatermarkBundle{std::move(model), std::move(signature), std::move(trigger)};
}

Status SaveBundle(const WatermarkBundle& bundle, const std::string& path) {
  return WriteStringToFile(path, BundleToJson(bundle).Dump());
}

Result<WatermarkBundle> LoadBundle(const std::string& path) {
  TREEWM_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  TREEWM_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  return BundleFromJson(doc);
}

}  // namespace treewm::io
