#pragma once
/// \file csv.hpp
/// Minimal CSV writer used by benches to dump figure series for plotting,
/// plus the matching RFC 4180 parser the serving trace replayer and the
/// result-store round-trip tests consume.

#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace optiplet::util {

/// Streams rows to a CSV file; quoting is applied when a cell contains a
/// comma, quote, or newline (RFC 4180).
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// True when the file opened successfully.
  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

  /// Append one data row; width is not enforced (ragged rows are legal CSV)
  /// but benches are expected to keep widths consistent.
  void add_row(const std::vector<std::string>& cells);

 private:
  void write_row(const std::vector<std::string>& cells);
  static std::string escape(const std::string& cell);

  std::ofstream out_;
};

/// Parse CSV text into records of fields (RFC 4180): quoted fields may
/// contain commas, doubled quotes, and newlines; unquoted CR before LF is
/// treated as a CRLF line ending; the final record may or may not end with
/// a newline. Fully empty trailing lines are not records. Throws
/// std::invalid_argument naming the 1-based line where a quote that is
/// never closed was opened.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(
    std::string_view text);

/// A parsed CSV file: the first record is the header, the rest are rows.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of `name` in the header; nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> column(
      std::string_view name) const;
};

/// Read and parse `path`; nullopt when the file cannot be opened or holds
/// no header record. Malformed CSV throws as parse_csv does.
[[nodiscard]] std::optional<CsvDocument> read_csv_file(
    const std::string& path);

}  // namespace optiplet::util
