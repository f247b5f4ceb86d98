#include "util/csv.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace optiplet::util {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path) {
  if (out_) {
    write_row(header);
  }
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (out_) {
    write_row(cells);
  }
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) {
      out_ << ',';
    }
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) {
    return cell;
  }
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') {
      quoted += '"';
    }
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  std::size_t quote_open = 0;  // offset of the current quote's opening
  // True once the current record holds any content (a field character, a
  // completed field, or an opening quote): distinguishes a lone "\n" (no
  // record) from "" followed by "\n" (one record of one empty field).
  bool record_started = false;

  const auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    record_started = true;
  };
  const auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
    record_started = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';  // doubled quote = literal quote
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;  // commas, CR, LF all literal inside quotes
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        quote_open = i;
        record_started = true;
        break;
      case ',':
        end_field();
        break;
      case '\r':
        if (i + 1 < text.size() && text[i + 1] == '\n') {
          ++i;  // CRLF line ending
        }
        if (record_started || !record.empty()) {
          end_record();
        }
        break;
      case '\n':
        // A fully empty line holds no record (blank separators and the
        // trailing newline both land here).
        if (record_started || !record.empty()) {
          end_record();
        }
        break;
      default:
        field += c;
        record_started = true;
        break;
    }
  }
  if (in_quotes) {
    const auto line =
        1 + std::count(text.begin(), text.begin() + quote_open, '\n');
    throw std::invalid_argument("unterminated quoted field opened on line " +
                                std::to_string(line));
  }
  // Final record without a trailing newline.
  if (record_started || !record.empty() || !field.empty()) {
    end_record();
  }
  return records;
}

std::optional<std::size_t> CsvDocument::column(std::string_view name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) {
      return i;
    }
  }
  return std::nullopt;
}

std::optional<CsvDocument> read_csv_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream os;
  os << in.rdbuf();
  auto records = parse_csv(os.str());
  if (records.empty()) {
    return std::nullopt;
  }
  CsvDocument doc;
  doc.header = std::move(records.front());
  doc.rows.assign(std::make_move_iterator(records.begin() + 1),
                  std::make_move_iterator(records.end()));
  return doc;
}

}  // namespace optiplet::util
