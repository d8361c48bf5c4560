#include "tree/binned_columns.h"

#include <algorithm>
#include <utility>

#include "common/mutex.h"
#include "common/string_util.h"
#include "tree/sorted_columns.h"

namespace treewm::tree {

namespace {

// Sort scratch recycled across the per-feature binning tasks. ParallelFor
// may run more feature tasks than worker threads; pooling the (row, value)
// buffers caps allocation at one n-entry buffer per concurrent task instead
// of one per feature.
struct ScratchPool {
  Mutex mutex;
  std::vector<std::vector<ColumnEntry>> free TREEWM_GUARDED_BY(mutex);
};

std::vector<ColumnEntry> TakeScratch(ScratchPool* pool) {
  MutexLock lock(&pool->mutex);
  if (pool->free.empty()) return {};
  std::vector<ColumnEntry> scratch = std::move(pool->free.back());
  pool->free.pop_back();
  return scratch;
}

void RecycleScratch(ScratchPool* pool, std::vector<ColumnEntry> scratch) {
  MutexLock lock(&pool->mutex);
  pool->free.push_back(std::move(scratch));
}

}  // namespace

Status ValidateBinnedMatch(const BinnedColumns* binned,
                           const data::Dataset& dataset) {
  if (binned == nullptr) {
    return Status::InvalidArgument(
        "histogram trainer mode requires binned columns");
  }
  if (binned->num_rows() != dataset.num_rows() ||
      binned->num_features() != dataset.num_features()) {
    return Status::InvalidArgument(
        StrFormat("binned columns shape (%zu x %zu) does not match dataset "
                  "(%zu x %zu)",
                  binned->num_rows(), binned->num_features(),
                  dataset.num_rows(), dataset.num_features()));
  }
  return Status::OK();
}

Result<std::shared_ptr<const BinnedColumns>> BinnedColumns::Build(
    const data::Dataset& dataset, const BinnedOptions& options,
    ThreadPool* pool) {
  if (options.max_bins < 2 || options.max_bins > 65535) {
    return Status::InvalidArgument(
        StrFormat("max_bins must be in [2, 65535], got %zu", options.max_bins));
  }
  const size_t n = dataset.num_rows();
  const size_t d = dataset.num_features();
  if (n == 0) {
    return Status::InvalidArgument("cannot bin an empty dataset");
  }
  TREEWM_RETURN_IF_ERROR(CheckOrderable(dataset));

  auto binned = std::shared_ptr<BinnedColumns>(new BinnedColumns());
  binned->num_rows_ = n;
  binned->num_features_ = d;
  binned->max_bins_ = options.max_bins;
  binned->num_bins_.assign(d, 0);
  binned->splits_.resize(d);
  // Bin wide first; narrow to uint8 afterwards when every feature fits.
  // Codes, bin counts and cut arrays are written into per-feature slots, so
  // the feature tasks are independent and the result is thread-count
  // invariant by construction.
  binned->codes16_.resize(d * n);

  ScratchPool scratch_pool;
  const size_t max_bins = options.max_bins;
  ParallelFor(pool, d, [&](size_t f) {
    std::vector<ColumnEntry> entries = TakeScratch(&scratch_pool);
    entries.resize(n);
    for (size_t i = 0; i < n; ++i) {
      entries[i] = {static_cast<uint32_t>(i), dataset.At(i, f)};
    }
    // Same comparator as SortedColumns::Build; the row-id tie order is
    // irrelevant here (codes ignore it) but keeping the idiom keeps the two
    // substrates trivially comparable.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const ColumnEntry& a, const ColumnEntry& b) {
                       return a.value < b.value;
                     });

    size_t distinct = 1;
    for (size_t i = 1; i < n; ++i) {
      if (entries[i].value != entries[i - 1].value) ++distinct;
    }

    uint16_t* codes = binned->codes16_.data() + f * n;
    std::vector<float>& splits = binned->splits_[f];
    uint32_t bin = 0;
    if (distinct <= max_bins) {
      // One bin per distinct value: the candidate cut set equals the exact
      // engine's on this feature.
      codes[entries[0].row] = 0;
      for (size_t i = 1; i < n; ++i) {
        if (entries[i].value != entries[i - 1].value) {
          splits.push_back(
              MidpointThreshold(entries[i - 1].value, entries[i].value));
          ++bin;
        }
        codes[entries[i].row] = static_cast<uint16_t>(bin);
      }
    } else {
      // Equal-frequency (quantile) bins over whole distinct-value runs:
      // close the current bin once it holds ceil(rows_left / bins_left)
      // rows, re-deriving the target after each close so late runs of tied
      // values cannot starve the remaining bins.
      size_t rows_left = n;
      size_t bins_left = max_bins;
      size_t target = (rows_left + bins_left - 1) / bins_left;
      size_t in_bin = 0;
      size_t i = 0;
      while (i < n) {
        size_t j = i + 1;
        while (j < n && entries[j].value == entries[i].value) ++j;
        for (size_t k = i; k < j; ++k) {
          codes[entries[k].row] = static_cast<uint16_t>(bin);
        }
        const size_t run = j - i;
        in_bin += run;
        rows_left -= run;
        if (j < n && in_bin >= target && bins_left > 1) {
          splits.push_back(
              MidpointThreshold(entries[j - 1].value, entries[j].value));
          ++bin;
          --bins_left;
          in_bin = 0;
          target = (rows_left + bins_left - 1) / bins_left;
        }
        i = j;
      }
    }
    binned->num_bins_[f] = bin + 1;
    RecycleScratch(&scratch_pool, std::move(entries));
  });

  uint32_t widest = 0;
  for (size_t f = 0; f < d; ++f) widest = std::max(widest, binned->num_bins_[f]);
  binned->wide_ = widest > 256;
  if (!binned->wide_) {
    binned->codes8_.resize(d * n);
    for (size_t i = 0; i < d * n; ++i) {
      binned->codes8_[i] = static_cast<uint8_t>(binned->codes16_[i]);
    }
    binned->codes16_.clear();
    binned->codes16_.shrink_to_fit();
  }
  return std::shared_ptr<const BinnedColumns>(std::move(binned));
}

}  // namespace treewm::tree
