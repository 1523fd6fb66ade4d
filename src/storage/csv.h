#ifndef LSENS_STORAGE_CSV_H_
#define LSENS_STORAGE_CSV_H_

#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "storage/database.h"

namespace lsens {

// Plain-CSV interchange for relations. Cells are either integers (stored
// verbatim; literals outside int64 are rejected with the line number and
// the offending column index/name) or arbitrary strings (interned through
// the database dictionary so joins still run over flat int64 columns; the
// touched columns are marked dictionary-encoded in the relation's
// catalog). The loader parses straight into per-column buffers and lands
// the file with one bulk columnar append. Reading accepts RFC 4180
// double-quoted cells ("" escapes a quote, commas inside quotes are
// literal; embedded line breaks are not supported and read as an
// unterminated quote error). Writing quotes a cell or header name that
// contains ',' or '"' or has leading or trailing whitespace, so every
// string round-trips; it refuses a line break, which the loader cannot
// read back. A failed load adds no relation.

// Loads `path` into a new relation named `relation`. The first line is the
// header (column names). Fails if the relation already exists.
Status LoadCsv(Database& db, const std::string& relation,
               const std::string& path);

// Writes the relation to `path`, rendering dictionary-interned values back
// to their strings when `render_dictionary` is set (integers that happen to
// collide with dictionary codes stay numeric when it is not).
Status SaveCsv(const Database& db, const std::string& relation,
               const std::string& path, bool render_dictionary = false);

// In-memory variants (used by tests and by the file functions).
Status LoadCsvText(Database& db, const std::string& relation,
                   const std::string& text);
StatusOr<std::string> SaveCsvText(const Database& db,
                                  const std::string& relation,
                                  bool render_dictionary = false);

}  // namespace lsens

#endif  // LSENS_STORAGE_CSV_H_
