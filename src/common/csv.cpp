#include "common/csv.h"

#include <charconv>
#include <istream>
#include <ostream>

namespace helios {

namespace {
bool needs_quoting(std::string_view s) {
  return s.find_first_of(",\"\n\r") != std::string_view::npos;
}

template <typename Int>
std::string integer_field(Int v) {
  char buf[24];  // any 64-bit integer
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}
}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& f : fields) {
    if (!first) *out_ << ',';
    first = false;
    if (needs_quoting(f)) {
      *out_ << '"';
      for (char c : f) {
        if (c == '"') *out_ << '"';
        *out_ << c;
      }
      *out_ << '"';
    } else {
      *out_ << f;
    }
  }
  *out_ << '\n';
}

std::string CsvWriter::field(double v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("nan");
}

std::string CsvWriter::field(std::int64_t v) { return integer_field(v); }

std::string CsvWriter::field(std::uint64_t v) { return integer_field(v); }

std::vector<std::string> CsvReader::parse_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  bool at_field_start = true;  // true until the field has any content
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"' && at_field_start) {
      // RFC 4180: a quote only opens a quoted field at the field start; a
      // stray quote mid-field is literal text and must not swallow the
      // delimiters after it.
      quoted = true;
      at_field_start = false;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
      at_field_start = true;
    } else if (c != '\r') {
      cur += c;
      at_field_start = false;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::optional<std::size_t> CsvReader::split_unquoted(
    std::string_view line, std::span<std::string_view> out) noexcept {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  // Two single-character finds (memchr) beat one find_first_of("\"\r"),
  // which tests every byte against the set in turn.
  if (line.find('"') != std::string_view::npos ||
      line.find('\r') != std::string_view::npos) {
    return std::nullopt;
  }
  std::size_t n = 0;
  std::size_t lo = 0;
  while (true) {
    const auto comma = line.find(',', lo);
    const auto hi = comma == std::string_view::npos ? line.size() : comma;
    if (n < out.size()) out[n] = line.substr(lo, hi - lo);
    ++n;
    if (comma == std::string_view::npos) return n;
    lo = comma + 1;
  }
}

std::vector<std::vector<std::string>> CsvReader::read_all(std::istream& in) {
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (is_blank_line(line)) continue;
    rows.push_back(parse_line(line));
  }
  return rows;
}

}  // namespace helios
