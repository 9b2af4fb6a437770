// Small CSV reader/writer (RFC-4180 quoting) used for trace import/export and
// for dumping bench series that downstream plotting scripts can consume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace helios {

class CsvWriter {
 public:
  /// Writes to an externally owned stream; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Write one row; fields are quoted only when needed.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: format doubles with enough precision to round-trip.
  static std::string field(double v);
  static std::string field(std::int64_t v);
  static std::string field(std::uint64_t v);

 private:
  std::ostream* out_;
};

class CsvReader {
 public:
  /// Parse one CSV line into fields (handles quoted fields with embedded
  /// commas/quotes; does not handle embedded newlines, which the trace format
  /// never produces). Quotes open a quoted field only at the field start
  /// (RFC 4180); mid-field quotes are literal text.
  static std::vector<std::string> parse_line(std::string_view line);

  /// Allocation-free split of a line without quotes: stores views of the
  /// first out.size() fields of `line` in `out` and returns the total field
  /// count (which may exceed out.size()). A final '\r' (CRLF input) is
  /// dropped. Returns std::nullopt when the line holds a '"' or any other
  /// '\r' — parse_line must unescape or strip those — so callers fall back
  /// to parse_line. Whenever it returns a count, the fields equal
  /// parse_line's.
  [[nodiscard]] static std::optional<std::size_t> split_unquoted(
      std::string_view line, std::span<std::string_view> out) noexcept;

  /// Read all rows from a stream; skips blank lines (including '\r'-only
  /// lines from CRLF input).
  static std::vector<std::vector<std::string>> read_all(std::istream& in);

  /// True for lines every reader skips: empty, or the lone '\r' that
  /// std::getline / byte-chunked iteration leave behind on blank lines of
  /// CRLF input. The single definition keeps the serial and parallel trace
  /// loaders agreeing on what a blank line is.
  [[nodiscard]] static bool is_blank_line(std::string_view line) noexcept {
    return line.empty() || (line.size() == 1 && line[0] == '\r');
  }
};

}  // namespace helios
