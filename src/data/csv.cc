#include "data/csv.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"

namespace treewm::data {

Result<Dataset> ParseCsv(const std::string& text, const CsvOptions& options) {
  std::vector<std::string> lines = StrSplit(text, '\n');
  Dataset dataset;
  bool initialized = false;
  size_t line_no = 0;
  std::vector<float> row;
  for (const std::string& raw_line : lines) {
    ++line_no;
    std::string_view line = StrTrim(raw_line);
    if (line.empty()) continue;
    if (options.has_header && line_no == 1) continue;
    std::vector<std::string> fields = StrSplit(line, ',');
    if (fields.size() < 2) {
      return Status::ParseError(
          StrFormat("line %zu: need at least one feature and a label", line_no));
    }
    size_t label_col = options.label_column < 0
                           ? fields.size() - 1
                           : static_cast<size_t>(options.label_column);
    if (label_col >= fields.size()) {
      return Status::ParseError(StrFormat("line %zu: label column out of range", line_no));
    }
    if (!initialized) {
      dataset = Dataset(fields.size() - 1);
      initialized = true;
    } else if (fields.size() - 1 != dataset.num_features()) {
      return Status::ParseError(StrFormat("line %zu: %zu fields, earlier rows have %zu",
                                          line_no, fields.size(),
                                          dataset.num_features() + 1));
    }
    row.clear();
    int label = 0;
    for (size_t i = 0; i < fields.size(); ++i) {
      double value;
      if (!ParseDouble(fields[i], &value)) {
        return Status::ParseError(StrFormat("line %zu: bad number '%s'", line_no,
                                            fields[i].c_str()));
      }
      if (i == label_col) {
        // Exact values only: a fractional or huge label is an error, not
        // something to round (0 is the 0/1 convention's negative class).
        if (value == 1.0) {
          label = kPositive;
        } else if (value == 0.0 || value == -1.0) {
          label = kNegative;
        } else {
          return Status::ParseError(StrFormat("line %zu: label '%s' not in {+1,-1,0,1}",
                                              line_no, fields[i].c_str()));
        }
      } else {
        // A finite cell past float range would silently narrow to ±inf;
        // literal inf/-inf cells (and NaN, rejected at training) pass.
        if (std::isfinite(value) && std::fabs(value) > std::numeric_limits<float>::max()) {
          return Status::ParseError(StrFormat("line %zu: number '%s' out of float range",
                                              line_no, fields[i].c_str()));
        }
        row.push_back(static_cast<float>(value));
      }
    }
    TREEWM_RETURN_IF_ERROR(dataset.AddRow(row, label));
  }
  if (!initialized) return Status::ParseError("empty CSV input");
  return dataset;
}

Result<Dataset> LoadCsv(const std::string& path, const CsvOptions& options) {
  TREEWM_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseCsv(text, options);
}

Status SaveCsv(const Dataset& dataset, const std::string& path) {
  std::ostringstream out;
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    auto row = dataset.Row(i);
    for (size_t j = 0; j < row.size(); ++j) {
      out << StrFormat("%.9g", static_cast<double>(row[j])) << ',';
    }
    out << dataset.Label(i) << '\n';
  }
  return WriteStringToFile(path, out.str());
}

}  // namespace treewm::data
