// The JSON module: one writer for every artifact the simulator emits, and a
// strict read-only parser for the regression sentinel.
//
// JsonWriter streams into a string or a buffered std::FILE*. raw() carries
// each artifact's own punctuation and whitespace, str() is the one escape,
// integers go through std::to_chars and doubles through a named NumFormat.
//
// The parser builds a value tree (golden baseline entries, candidate metric
// files, BENCH_*.json snapshots). Objects keep member order, numbers keep
// their source text (so a "%.17g" baseline value round-trips byte-exact), and
// errors carry a line:column location. No \uXXXX decoding beyond
// pass-through and no mutation: a few-hundred-KB BENCH file parses in
// microseconds against a multi-second simulation, so clarity wins.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace arinoc::obs::regress {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  /// The number's exact source spelling (e.g. "1.1463749999999999").
  const std::string& raw_number() const { return string_; }
  const std::string& as_string() const { return string_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Convenience: member string value, or `fallback` when absent/not string.
  std::string string_or(const std::string& key,
                        const std::string& fallback = {}) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< String value, or raw number text for numbers.
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  std::string error;  ///< "line L col C: message" when !ok.
};

/// Parses a complete JSON document (trailing garbage is an error).
JsonParseResult json_parse(const std::string& text);

/// Escapes a string for embedding in a JSON document (quotes not included):
/// quote, backslash, and every byte below 0x20.
std::string json_escape(std::string_view s);

/// Named spellings of a double. Each is byte-identical to its printf
/// conversion (RegressJson.NumFormatsMatchPrintf checks 1M seeded values).
enum class NumFormat {
  kG6,       ///< "%.6g": telemetry, counter gauges, trend values.
  kIntOrG6,  ///< "%lld" when integral and |v| < 1e15, else "%.6g": metrics
             ///< report, attribution shares and means.
  kG17,      ///< "%.17g": baseline entries (exact round trip).
  kFixed3,   ///< "%.3f": provenance wall_s.
};

/// `v` spelled in `format`.
std::string format_number(double v, NumFormat format);

/// Streams one document into a string, or into a std::FILE* through a
/// buffer. A file writer must end with finish(); the file stays open.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}
  explicit JsonWriter(std::FILE* file) : out_(buf_), file_(file) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& raw(std::string_view text) {
    out_.append(text);
    return spill();
  }
  /// `s` quoted and escaped.
  JsonWriter& str(std::string_view s);
  template <std::integral T>
  JsonWriter& num(T v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return spill();
  }
  JsonWriter& num(double v, NumFormat format);

  /// Writes out and flushes what is buffered. False when any write to the
  /// file failed; always true for a string.
  bool finish();

 private:
  JsonWriter& spill() {
    if (file_ != nullptr && buf_.size() >= (std::size_t{1} << 16)) finish();
    return *this;
  }

  std::string buf_;  ///< File sink only.
  std::string& out_;
  std::FILE* file_ = nullptr;
  bool failed_ = false;
};

/// Creates (truncates) `path` and streams `emit`'s document into it. False
/// when the file cannot be opened, written or closed.
bool write_json_file(const std::string& path,
                     const std::function<void(JsonWriter&)>& emit);

}  // namespace arinoc::obs::regress
