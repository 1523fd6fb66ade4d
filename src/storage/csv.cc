#include "storage/csv.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

namespace lsens {

namespace {

// The whitespace the loader trims from unquoted cells.
constexpr char kTrimmed[] = " \t\r";

std::string Trim(const std::string& cell) {
  size_t begin = cell.find_first_not_of(kTrimmed);
  size_t end = cell.find_last_not_of(kTrimmed);
  return (begin == std::string::npos) ? std::string()
                                      : cell.substr(begin, end - begin + 1);
}

// RFC 4180 field splitting: cells are comma-separated; a cell may be
// double-quoted, in which case commas are literal and "" encodes one quote.
// Unquoted cells are whitespace-trimmed (legacy behavior); quoted cells are
// kept verbatim. Quoted cells may not continue past their closing quote,
// and an unterminated quote is an error (it is also what an RFC 4180
// embedded line break looks like to this line-based reader, so the message
// mentions both).
Status SplitLine(const std::string& line, size_t line_no,
                 std::vector<std::string>* cells) {
  cells->clear();
  size_t pos = 0;
  while (true) {
    // One cell starting at `pos`.
    size_t scan = line.find_first_not_of(" \t", pos);
    if (scan != std::string::npos && line[scan] == '"') {
      std::string cell;
      size_t i = scan + 1;
      bool closed = false;
      while (i < line.size()) {
        if (line[i] == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            cell += '"';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        cell += line[i++];
      }
      if (!closed) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": unterminated quoted cell (embedded line breaks are not"
            " supported)");
      }
      size_t rest = line.find_first_not_of(" \t\r", i);
      if (rest != std::string::npos && line[rest] != ',') {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": unexpected character after closing quote");
      }
      cells->push_back(std::move(cell));
      if (rest == std::string::npos) return Status::OK();
      pos = rest + 1;
      continue;
    }
    size_t comma = line.find(',', pos);
    if (comma == std::string::npos) {
      cells->push_back(Trim(line.substr(pos)));
      return Status::OK();
    }
    cells->push_back(Trim(line.substr(pos, comma - pos)));
    pos = comma + 1;
  }
}

bool IsInteger(const std::string& s) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

// Exact int64 parse for a cell IsInteger accepted. Unlike std::stoll, an
// out-of-range literal reports failure instead of throwing through the
// Status API.
bool ParseInt64(const std::string& s, int64_t* out) {
  // std::from_chars accepts '-' but not '+'.
  const char* begin = s.data() + (s[0] == '+' ? 1 : 0);
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

// Writes `s` as one cell (or header name), double-quoted as RFC 4180 says
// when the loader would otherwise split it (','), unescape it ('"'), trim
// it (leading or trailing whitespace) or skip it (an empty cell alone on
// its line reads as a blank line). The loader reads line by line, so a
// line break cannot round-trip and is refused.
Status WriteCell(const std::string& s, std::ostringstream& out) {
  if (s.find('\n') != std::string::npos) {
    return Status::InvalidArgument("value contains a line break: " + s);
  }
  const std::string_view trimmed(kTrimmed);
  const bool quote = s.empty() || s.find_first_of(",\"") != std::string::npos ||
                     trimmed.find(s.front()) != trimmed.npos ||
                     trimmed.find(s.back()) != trimmed.npos;
  if (!quote) {
    out << s;
    return Status::OK();
  }
  out << '"';
  for (char ch : s) {
    if (ch == '"') out << '"';
    out << ch;
  }
  out << '"';
  return Status::OK();
}

}  // namespace

Status LoadCsvText(Database& db, const std::string& relation,
                   const std::string& text) {
  if (db.Find(relation) != nullptr) {
    return Status::InvalidArgument("relation '" + relation +
                                   "' already exists");
  }
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV: missing header");
  }
  std::vector<std::string> header;
  LSENS_RETURN_IF_ERROR(SplitLine(line, 1, &header));
  for (const auto& col : header) {
    if (col.empty()) return Status::InvalidArgument("empty column name");
  }

  // Cells parse straight into per-column buffers — the same shape as the
  // relation's columnar storage — and the whole file lands with one
  // AppendColumns call (one contiguous copy per column). String cells are
  // staged and intern through the database dictionary, in file order, only
  // once every line has parsed; any column that interned at least one cell
  // is marked dictionary-encoded in the catalog. So a failed load leaves
  // neither a relation nor dictionary entries behind.
  struct StagedString {
    size_t column;
    size_t row;
    std::string text;
  };
  std::vector<std::vector<Value>> columns(header.size());
  std::vector<bool> interned(header.size(), false);
  std::vector<StagedString> strings;
  std::vector<std::string> cells;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    LSENS_RETURN_IF_ERROR(SplitLine(line, line_no, &cells));
    if (cells.size() != header.size()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected " +
          std::to_string(header.size()) + " cells, got " +
          std::to_string(cells.size()));
    }
    for (size_t c = 0; c < cells.size(); ++c) {
      if (IsInteger(cells[c])) {
        int64_t parsed = 0;
        if (!ParseInt64(cells[c], &parsed)) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) + ", column " +
              std::to_string(c) + " ('" + header[c] + "'): integer literal '" +
              cells[c] + "' out of int64 range");
        }
        columns[c].push_back(static_cast<Value>(parsed));
      } else {
        strings.push_back({c, columns[c].size(), std::move(cells[c])});
        columns[c].push_back(0);
        interned[c] = true;
      }
    }
  }
  for (const StagedString& cell : strings) {
    columns[cell.column][cell.row] = db.dict().Intern(cell.text);
  }
  Relation* rel = db.AddRelation(relation, header);
  rel->AppendColumns(columns);
  for (size_t c = 0; c < header.size(); ++c) {
    if (interned[c]) rel->set_column_dictionary(c, true);
  }
  return Status::OK();
}

StatusOr<std::string> SaveCsvText(const Database& db,
                                  const std::string& relation,
                                  bool render_dictionary) {
  const Relation* rel = db.Find(relation);
  if (rel == nullptr) return Status::NotFound("relation " + relation);
  std::ostringstream out;
  for (size_t c = 0; c < rel->column_names().size(); ++c) {
    if (c > 0) out << ',';
    LSENS_RETURN_IF_ERROR(WriteCell(rel->column_names()[c], out));
  }
  out << '\n';
  for (size_t r = 0; r < rel->NumRows(); ++r) {
    for (size_t c = 0; c < rel->arity(); ++c) {
      Value v = rel->At(r, c);
      if (c > 0) out << ',';
      if (render_dictionary && db.dict().ContainsValue(v)) {
        // The loader reads an integer-shaped cell as an integer, quoted or
        // not, so such a string cannot round-trip and is refused.
        const std::string& text = db.dict().String(v);
        if (IsInteger(text)) {
          return Status::InvalidArgument(
              "dictionary string reads back as an integer: " + text);
        }
        LSENS_RETURN_IF_ERROR(WriteCell(text, out));
      } else {
        out << v;
      }
    }
    out << '\n';
  }
  return out.str();
}

Status LoadCsv(Database& db, const std::string& relation,
               const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadCsvText(db, relation, buffer.str());
}

Status SaveCsv(const Database& db, const std::string& relation,
               const std::string& path, bool render_dictionary) {
  auto text = SaveCsvText(db, relation, render_dictionary);
  if (!text.ok()) return text.status();
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << *text;
  return out ? Status::OK() : Status::Internal("write failed: " + path);
}

}  // namespace lsens
