// The one JSON writer behind every observability artefact (BENCH_*, TRACE_*,
// SERIES_*, FLIGHT_*): string escaping, number formatting and the file write.
// Exporters build their document as a string with these helpers; the bench
// harness decides where it lands.
#pragma once

#include <string>
#include <string_view>

namespace p4ce::obs {

/// Append `s` as a quoted JSON string with minimal escaping.
void append_json_escaped(std::string& out, std::string_view s);

/// Append `v` as a JSON number: integral values print exactly (so counters
/// stay exact), everything else with 9 significant digits.
void append_json_number(std::string& out, double v);

/// Write `content` to `path`, replacing the file; false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace p4ce::obs
