#include "obs/regress/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace arinoc::obs::regress {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  std::size_t plain = 0;  // Start of the pending run of unescaped bytes.
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(s.substr(plain, i - plain));
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.substr(plain));
}

/// Longest spelling: "%.3f" of -DBL_MAX, 309 integer digits.
constexpr std::size_t kMaxSpelling = 320;

char* spell(char* first, double v, NumFormat format) {
  char* const last = first + kMaxSpelling;
  switch (format) {
    case NumFormat::kIntOrG6:
      if (std::abs(v) < 1e15 && v == std::trunc(v)) {
        return std::to_chars(first, last, static_cast<long long>(v)).ptr;
      }
      [[fallthrough]];
    case NumFormat::kG6:
      return std::to_chars(first, last, v, std::chars_format::general, 6).ptr;
    case NumFormat::kG17:
      return std::to_chars(first, last, v, std::chars_format::general, 17)
          .ptr;
    case NumFormat::kFixed3:
      return std::to_chars(first, last, v, std::chars_format::fixed, 3).ptr;
  }
  return first;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string format_number(double v, NumFormat format) {
  char buf[kMaxSpelling];
  return std::string(buf, spell(buf, v, format));
}

JsonWriter& JsonWriter::str(std::string_view s) {
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return spill();
}

JsonWriter& JsonWriter::num(double v, NumFormat format) {
  char buf[kMaxSpelling];
  out_.append(buf, spell(buf, v, format));
  return spill();
}

bool JsonWriter::finish() {
  if (file_ == nullptr) return true;
  if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size() ||
      std::fflush(file_) != 0) {
    failed_ = true;
  }
  buf_.clear();
  return !failed_;
}

bool write_json_file(const std::string& path,
                     const std::function<void(JsonWriter&)>& emit) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  JsonWriter w(file);
  emit(w);
  const bool ok = w.finish();
  return std::fclose(file) == 0 && ok;
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonParseResult run() {
    JsonParseResult r;
    skip_ws();
    if (!value(r.value)) {
      r.error = where() + error_;
      return r;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      r.error = where() + "trailing characters after the document";
      return r;
    }
    r.ok = true;
    return r;
  }

 private:
  bool fail(const char* msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  std::string where() const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < s_.size(); ++i) {
      if (s_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return "line " + std::to_string(line) + " col " + std::to_string(col) +
           ": ";
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool value(JsonValue& out) {
    switch (peek()) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': return string_value(out);
      case 't': return literal("true", out, true);
      case 'f': return literal("false", out, false);
      case 'n':
        if (s_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          out.kind_ = JsonValue::Kind::kNull;
          return true;
        }
        return fail("expected 'null'");
      default: return number(out);
    }
  }

  bool literal(const char* word, JsonValue& out, bool v) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return fail("malformed literal");
    pos_ += n;
    out.kind_ = JsonValue::Kind::kBool;
    out.bool_ = v;
    return true;
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      return fail("expected a value");
    }
    // JSON grammar: the integer part is '0' or [1-9][0-9]* — a leading zero
    // followed by more digits (e.g. "01") is malformed.
    if (peek() == '0') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("malformed number (leading zero)");
      }
    } else {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("malformed number (digit must follow '.')");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("malformed number (empty exponent)");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    out.kind_ = JsonValue::Kind::kNumber;
    out.string_ = s_.substr(start, pos_ - start);
    out.number_ = std::strtod(out.string_.c_str(), nullptr);
    return true;
  }

  bool string_value(JsonValue& out) {
    std::string text;
    if (!string_text(text)) return false;
    out.kind_ = JsonValue::Kind::kString;
    out.string_ = std::move(text);
    return true;
  }

  bool string_text(std::string& out) {
    if (peek() != '"') return fail("expected '\"'");
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return fail("unterminated escape");
        switch (s_[pos_]) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Pass \uXXXX through verbatim — the emitters never produce it
            // for the fields the sentinel reads.
            if (pos_ + 4 >= s_.size()) return fail("truncated \\u escape");
            out += '\\';
            out.append(s_, pos_, 5);
            pos_ += 5;
            continue;
          default: return fail("unknown escape character");
        }
      }
      out += c;
      ++pos_;
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    ++pos_;  // Closing quote.
    return true;
  }

  bool array(JsonValue& out) {
    ++pos_;  // '['
    out.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      skip_ws();
      if (!value(item)) return false;
      out.items_.push_back(std::move(item));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool object(JsonValue& out) {
    ++pos_;  // '{'
    out.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string_text(key)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!value(member)) return false;
      out.members_.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string error_;
};

JsonParseResult json_parse(const std::string& text) {
  return JsonParser(text).run();
}

}  // namespace arinoc::obs::regress
