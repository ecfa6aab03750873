#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.h"

namespace opus::json {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kInt: return "int";
    case Kind::kDouble: return "double";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

ParseError::ParseError(std::string message, int line, int col,
                       std::string path)
    : std::runtime_error("json parse error at line " + std::to_string(line) +
                         ", col " + std::to_string(col) + " (" + path +
                         "): " + message),
      line_(line),
      col_(col),
      path_(std::move(path)) {}

Value::Value(double d) : kind_(Kind::kDouble), dbl_(d) {
  ensure(std::isfinite(d), "json: NaN/Inf cannot be represented");
}

bool Value::as_bool() const {
  ensure(is_bool(), "json: value is not a bool");
  return bool_;
}

std::int64_t Value::as_int() const {
  ensure(is_int(), "json: value is not an int");
  return int_;
}

double Value::as_double() const {
  ensure(is_number(), "json: value is not a number");
  return is_int() ? static_cast<double>(int_) : dbl_;
}

const std::string& Value::as_string() const {
  ensure(is_string(), "json: value is not a string");
  return str_;
}

std::size_t Value::size() const {
  if (is_array()) return arr_.size();
  if (is_object()) return obj_.size();
  ensure(false, "json: size() on a non-container value");
  return 0;
}

const Value& Value::operator[](std::size_t i) const {
  ensure(is_array(), "json: operator[] on a non-array value");
  ensure(i < arr_.size(), "json: array index out of range");
  return arr_[i];
}

void Value::push_back(Value v) {
  ensure(is_array(), "json: push_back on a non-array value");
  arr_.push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  ensure(is_object(), "json: set() on a non-object value");
  ensure(find(key) == nullptr, "json: duplicate object key");
  obj_.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Value>>& Value::entries() const {
  ensure(is_object(), "json: entries() on a non-object value");
  return obj_;
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return a.bool_ == b.bool_;
    case Kind::kInt: return a.int_ == b.int_;
    case Kind::kDouble: return a.dbl_ == b.dbl_;
    case Kind::kString: return a.str_ == b.str_;
    case Kind::kArray: return a.arr_ == b.arr_;
    case Kind::kObject: return a.obj_ == b.obj_;
  }
  return false;
}

// ---- parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    throw ParseError(message, line_, col(), path());
  }

  int col() const { return static_cast<int>(pos_ - line_start_) + 1; }

  std::string path() const {
    std::string p = "$";
    for (const auto& seg : path_) {
      if (seg.key.empty() && seg.index >= 0) {
        p += '[';
        p += std::to_string(seg.index);
        p += ']';
      } else {
        p += '.';
        p += seg.key;
      }
    }
    return p;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      line_start_ = pos_;
    }
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        next();
      } else {
        break;
      }
    }
  }

  void expect(char c, const char* what) {
    skip_ws();
    if (eof() || peek() != c) {
      fail(std::string("expected ") + what);
    }
    next();
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_).substr(0, lit.size()) != lit) return false;
    for (std::size_t i = 0; i < lit.size(); ++i) next();
    return true;
  }

  Value parse_value() {
    skip_ws();
    if (eof()) fail("unexpected end of input");
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal (expected 'true')");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal (expected 'false')");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal (expected 'null')");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Value parse_object() {
    expect('{', "'{'");
    Value obj = Value::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      next();
      return obj;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) {
        fail("duplicate object key \"" + key + "\"");
      }
      expect(':', "':' after object key");
      path_.push_back({key, -1});
      Value v = parse_value();
      path_.pop_back();
      obj.set(std::move(key), std::move(v));
      skip_ws();
      if (eof()) fail("unterminated object");
      char c = next();
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[', "'['");
    Value arr = Value::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      next();
      return arr;
    }
    int index = 0;
    while (true) {
      path_.push_back({"", index++});
      Value v = parse_value();
      path_.pop_back();
      arr.push_back(std::move(v));
      skip_ws();
      if (eof()) fail("unterminated array");
      char c = next();
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) fail("unterminated escape sequence");
      char e = next();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: require the low half.
            if (eof() || peek() != '\\') fail("unpaired UTF-16 surrogate");
            next();
            if (eof() || peek() != 'u') fail("unpaired UTF-16 surrogate");
            next();
            unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail(std::string("invalid escape '\\") + e + "'");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("truncated \\u escape");
      char c = next();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return v;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (!eof() && peek() == '-') next();
    if (eof()) fail("truncated number");
    if (peek() == '0') {
      next();
    } else if (peek() >= '1' && peek() <= '9') {
      while (!eof() && peek() >= '0' && peek() <= '9') next();
    } else {
      fail("invalid number");
    }
    if (!eof() && peek() == '.') {
      is_double = true;
      next();
      if (eof() || peek() < '0' || peek() > '9') {
        fail("digit required after decimal point");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') next();
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      is_double = true;
      next();
      if (!eof() && (peek() == '+' || peek() == '-')) next();
      if (eof() || peek() < '0' || peek() > '9') {
        fail("digit required in exponent");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') next();
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t i = 0;
      const auto [p, ec] =
          std::from_chars(token.data(), token.data() + token.size(), i);
      if (ec == std::errc() && p == token.data() + token.size()) {
        return Value(i);
      }
      // Integer literal overflowing int64: fall through to double.
    }
    const std::string owned(token);
    char* end = nullptr;
    const double d = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size() || !std::isfinite(d)) {
      fail("number out of range");
    }
    return Value(d);
  }

  struct PathSeg {
    std::string key;  ///< object member (empty for array elements)
    int index;        ///< array index (-1 for object members)
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::size_t line_start_ = 0;
  std::vector<PathSeg> path_;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

// ---- writer ----------------------------------------------------------------

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_double(std::string& out, double d) {
  char buf[32];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, d);
  ensure(ec == std::errc(), "json: double formatting failed");
  std::string_view sv(buf, static_cast<std::size_t>(p - buf));
  out += sv;
  // Shortest-round-trip printing drops the ".0" from integral doubles; put
  // it back so the value re-parses as a double, not an int (kind-stable
  // round trips are what the serde fixed-point tests pin).
  if (sv.find('.') == std::string_view::npos &&
      sv.find('e') == std::string_view::npos &&
      sv.find('E') == std::string_view::npos) {
    out += ".0";
  }
}

void write_value(std::string& out, const Value& v, int indent, int depth) {
  const bool pretty = indent > 0;
  auto newline_pad = [&](int d) {
    if (pretty) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (v.kind()) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(v.as_int()); break;
    case Kind::kDouble: write_double(out, v.as_double()); break;
    case Kind::kString: write_escaped(out, v.as_string()); break;
    case Kind::kArray: {
      if (v.size() == 0) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out.push_back(',');
        newline_pad(depth + 1);
        write_value(out, v[i], indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      if (v.size() == 0) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : v.entries()) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        write_escaped(out, key);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        write_value(out, member, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& v, int indent) {
  ensure(indent >= 0, "json: negative indent");
  std::string out;
  write_value(out, v, indent, 0);
  return out;
}

}  // namespace opus::json
