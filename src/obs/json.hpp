#pragma once

/// \file
/// Deterministic JSON emission: the streaming JsonWriter used by the
/// exporters and the flat RowsJson schema every bench binary emits.

// Deterministic JSON emission for the observability subsystem and the bench
// harness. Two layers:
//
//   * json_quote / json_number / JsonWriter — a minimal streaming writer
//     (comma management via a container stack) used by the metrics and
//     Chrome-trace exporters. Output is byte-deterministic: no pointers, no
//     clocks, no locale dependence ("%.6g" for doubles, "null" for
//     non-finite values).
//   * RowsJson — the flat row-oriented schema every bench binary emits:
//       {"bench": "<name>", "schema": 1, "rows": [{...}, ...]}
//     Rows keep insertion order; values are ints, doubles, bools or
//     strings. This used to live in bench/bench_util.hpp as BenchJson;
//     bench/ keeps a `using BenchJson = obs::RowsJson` alias.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace plansep::obs {

/// JSON string literal for s, quotes included. Escapes the two structural
/// characters, newlines, and remaining control bytes (\u00XX).
inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// JSON number literal for v; non-finite values become "null" (JSON has no
/// Inf/NaN).
inline std::string json_number(double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  } else {
    std::snprintf(buf, sizeof buf, "null");
  }
  return buf;
}

/// Streaming JSON writer with automatic comma placement. The caller is
/// responsible for well-formedness (key() only inside objects, matched
/// begin/end) — PLANSEP-internal use only, not a general serializer.
class JsonWriter {
 public:
  JsonWriter& begin_object() {  ///< opens {
    pre_value();
    out_ += '{';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& end_object() {  ///< closes }
    out_ += '}';
    stack_.pop_back();
    return *this;
  }
  JsonWriter& begin_array() {  ///< opens [
    pre_value();
    out_ += '[';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& end_array() {  ///< closes ]
    out_ += ']';
    stack_.pop_back();
    return *this;
  }
  /// Emits an object key; the next call supplies its value.
  JsonWriter& key(std::string_view k) {
    pre_value();
    out_ += json_quote(k);
    out_ += ':';
    key_pending_ = true;
    return *this;
  }
  /// Emits an integer value.
  JsonWriter& value(long long v) {
    pre_value();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }  ///< int
  /// Emits a number (non-finite renders as null).
  JsonWriter& value(double v) {
    pre_value();
    out_ += json_number(v);
    return *this;
  }
  /// Emits true/false.
  JsonWriter& value(bool v) {
    pre_value();
    out_ += v ? "true" : "false";
    return *this;
  }
  /// Emits a quoted, escaped string.
  JsonWriter& value(std::string_view v) {
    pre_value();
    out_ += json_quote(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }  ///< string
  /// Splices a pre-rendered JSON fragment in value position.
  JsonWriter& raw(std::string_view fragment) {
    pre_value();
    out_ += fragment;
    return *this;
  }

  /// The document rendered so far.
  const std::string& str() const { return out_; }

 private:
  void pre_value() {
    if (key_pending_) {
      key_pending_ = false;
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back()) out_ += ',';
      stack_.back() = true;
    }
  }

  std::string out_;
  std::vector<bool> stack_;  // per open container: "has at least one item"
  bool key_pending_ = false;
};

// ----------------------------------------------------------- bench rows --

/// The row-oriented JSON document bench binaries emit:
/// {"bench": name, "schema": 1, "rows": [{...}, ...]}. Rows keep
/// insertion order; rendering is byte-deterministic.
class RowsJson {
 public:
  explicit RowsJson(std::string name) : name_(std::move(name)) {}  ///< bench name

  /// One output row: ordered key→value pairs set fluently.
  class Row {
   public:
    Row& set(const char* key, long long v) {  ///< integer cell
      kv_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Row& set(const char* key, int v) {  ///< integer cell
      return set(key, static_cast<long long>(v));
    }
    Row& set(const char* key, double v) {  ///< numeric cell
      kv_.emplace_back(key, json_number(v));
      return *this;
    }
    Row& set(const char* key, bool v) {  ///< boolean cell
      kv_.emplace_back(key, v ? "true" : "false");
      return *this;
    }
    Row& set(const char* key, const std::string& v) {  ///< string cell
      kv_.emplace_back(key, json_quote(v));
      return *this;
    }
    Row& set(const char* key, const char* v) { return set(key, std::string(v)); }  ///< string cell

   private:
    friend class RowsJson;
    std::vector<std::pair<std::string, std::string>> kv_;
  };

  /// Appends a fresh row; chain .set(...) calls on the reference.
  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Renders the whole document as a JSON string.
  std::string render() const {
    std::string out = "{\"bench\": " + json_quote(name_) + ", \"schema\": 1";
    out += ", \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out += r == 0 ? "\n" : ",\n";
      out += "  {";
      const auto& kv = rows_[r].kv_;
      for (std::size_t i = 0; i < kv.size(); ++i) {
        if (i) out += ", ";
        out += json_quote(kv[i].first) + ": " + kv[i].second;
      }
      out += "}";
    }
    out += "\n]}\n";
    return out;
  }

  /// Writes render() to path (no-op on empty path); announces the file.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    f << render();
    std::printf("\n[json] %zu row(s) -> %s\n", rows_.size(), path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace plansep::obs
