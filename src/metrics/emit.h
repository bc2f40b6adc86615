#pragma once

/// \file emit.h
/// Machine-readable emitters shared by the scenario engine, the benches and
/// the CLI: a CSV writer (RFC-4180-ish quoting, stable formatting so traces
/// are byte-comparable across runs) and a minimal JSON object builder for
/// aggregate summaries. Both render to strings so callers can diff, hash, or
/// stream them.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dex::metrics {

/// Formats a double with enough digits to round-trip, trimming trailing
/// zeros ("1.5", not "1.500000"); integral values print without a point.
[[nodiscard]] std::string format_double(double v);

/// One rendered CSV line: cells joined with the same quoting CsvWriter
/// applies, plus the trailing newline. The streaming sinks (sim/sinks.h)
/// write rows through this as they happen instead of accumulating them.
[[nodiscard]] std::string csv_line(const std::vector<std::string>& cells);

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header)
      : header_(std::move(header)) {}

  /// Cells are quoted only when they contain a comma, quote, or newline.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::string to_string() const;
  void write(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Flat-ish JSON object builder: string/number/bool fields plus nested
/// objects, emitted in insertion order.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const char* value);
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  JsonObject& add(const std::string& key, bool value);
  JsonObject& add(const std::string& key, const JsonObject& value);

  [[nodiscard]] std::string to_string() const;

 private:
  /// Values are pre-rendered JSON fragments.
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace dex::metrics
