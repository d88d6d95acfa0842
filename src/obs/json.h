// Minimal flat-JSON object writer: the one stable serialisation used by
// the CHAM-BENCH bench lines and the MetricsRegistry snapshot, so CI
// tooling (tools/check_bench.py) parses a single format. Fields render in
// insertion order; doubles use the shortest form that parses back to the
// same bits (std::to_chars).
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

namespace cham {
namespace obs {

class JsonWriter {
 public:
  JsonWriter& field(const std::string& key, const std::string& value) {
    raw(key, "\"" + escaped(value) + "\"");
    return *this;
  }
  JsonWriter& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonWriter& field(const std::string& key, double value) {
    char buf[32];  // the longest shortest form is 24 characters
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    raw(key, std::string(buf, res.ptr));
    return *this;
  }
  JsonWriter& field(const std::string& key, std::uint64_t value) {
    raw(key, std::to_string(value));
    return *this;
  }
  JsonWriter& field(const std::string& key, int value) {
    raw(key, std::to_string(value));
    return *this;
  }
  // Nested object / array already serialised by the caller.
  JsonWriter& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + escaped(key) + "\":" + json;
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

 private:
  std::string body_;
};

}  // namespace obs
}  // namespace cham
