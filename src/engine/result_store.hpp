#pragma once
/// \file result_store.hpp
/// Aggregation and CSV export for sweep results. The store keeps results
/// in insertion (= submission) order, offers the Table-3-style
/// per-architecture averages, picks winners by an arbitrary metric, and
/// dumps the full grid through util::CsvWriter for plotting.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "engine/sweep_runner.hpp"

namespace optiplet::engine {

class ResultStore {
 public:
  ResultStore() = default;
  explicit ResultStore(std::vector<ScenarioResult> results)
      : results_(std::move(results)) {}

  void add(ScenarioResult result) { results_.push_back(std::move(result)); }
  void add_all(const std::vector<ScenarioResult>& results);

  [[nodiscard]] const std::vector<ScenarioResult>& results() const {
    return results_;
  }
  [[nodiscard]] std::size_t size() const { return results_.size(); }
  [[nodiscard]] bool empty() const { return results_.empty(); }

  /// Per-architecture averages across every stored result of that
  /// architecture (Table-3 semantics), in first-seen order.
  [[nodiscard]] std::vector<core::PlatformAverages> by_architecture() const;

  /// The stored result minimizing `metric`; nullptr when empty. Ties keep
  /// the earliest (submission order), so the winner is deterministic.
  [[nodiscard]] const ScenarioResult* best_by(
      const std::function<double(const ScenarioResult&)>& metric) const;

  /// The spec columns every row starts with (model through overrides) and
  /// their cells — shared with the per-layer dump so the two CSVs join.
  [[nodiscard]] static std::vector<std::string> spec_header();
  [[nodiscard]] static std::vector<std::string> spec_cells(
      const ScenarioSpec& spec);

  /// CSV schema: one row per scenario, spec columns then metric columns.
  [[nodiscard]] static std::vector<std::string> csv_header();
  [[nodiscard]] static std::vector<std::string> csv_row(
      const ScenarioResult& result);

  /// Write all results to `path`; false when the file cannot be opened.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<ScenarioResult> results_;
};

}  // namespace optiplet::engine
