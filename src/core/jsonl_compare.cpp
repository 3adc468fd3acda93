#include "core/jsonl_compare.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace oal::core {

namespace {

/// Minimal recursive-descent parser for the writer's record subset.
class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  JsonlRecord record() {
    JsonlRecord rec;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        const std::string key = string_value();
        expect(':');
        if (key == "bench") {
          rec.bench = string_value();
        } else if (key == "id") {
          rec.id = string_value();
        } else if (key == "metrics") {
          metrics_object(rec);
        } else {
          fail("unknown record key '" + key + "'");
        }
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
    }
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after record");
    return rec;
  }

 private:
  void metrics_object(JsonlRecord& rec) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      const std::string name = string_value();
      expect(':');
      skip_ws();
      if (s_.compare(pos_, 4, "null") == 0) {
        pos_ += 4;
        rec.null_metrics.push_back(name);
      } else {
        rec.metrics.emplace_back(name, number_value());
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      break;
    }
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += unicode_escape(); break;
        default: fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  /// \uXXXX, emitted as UTF-8 (the writer only produces control characters,
  /// but decode the full BMP for robustness; surrogate pairs are out of
  /// scope for bench ids and rejected).
  std::string unicode_escape() {
    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') {
        cp |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escapes are not supported");
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  double number_value() {
    // Scan the JSON number grammar ourselves instead of handing strtod the
    // raw tail: strtod also accepts inf/nan/hex/leading-'+' spellings JSON
    // forbids, and an inf-vs-inf comparison downstream would yield a NaN
    // diff that passes every tolerance check.
    skip_ws();
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t d = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      return pos_ > d;
    };
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (!digits()) fail("expected a number");
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("expected digits after decimal point");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) fail("expected exponent digits");
    }
    // The scanner above already validated [start, pos_) against the strict
    // JSON number grammar, so strtod cannot stop early or see garbage here.
    // oal-lint: allow(unchecked-parse)
    const double v = std::strtod(std::string(s_, start, pos_ - start).c_str(), nullptr);
    if (!std::isfinite(v)) fail("number overflows double");  // e.g. 1e999
    return v;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r' || s_[pos_] == '\n'))
      ++pos_;
  }

  [[noreturn]] void fail(const std::string& what) {
    // pos_ is a byte offset (std::size_t): to_string is exact on integers,
    // the float-precision hazard does not apply.
    // oal-lint: allow(float-format)
    const std::string at = std::to_string(pos_);
    throw std::invalid_argument("parse_jsonl_record: " + what + " at offset " + at);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonlRecord parse_jsonl_record(const std::string& line) { return Parser(line).record(); }

std::vector<JsonlRecord> read_jsonl(std::istream& in) {
  std::vector<JsonlRecord> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    out.push_back(parse_jsonl_record(line));
  }
  return out;
}

std::vector<JsonlRecord> read_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_jsonl_file: cannot open '" + path + "'");
  return read_jsonl(in);
}

namespace {

/// '*'-terminated filter elements match by prefix, everything else exactly.
bool metric_selector_matches(const std::string& selector, const std::string& name) {
  if (!selector.empty() && selector.back() == '*')
    return name.compare(0, selector.size() - 1, selector, 0, selector.size() - 1) == 0;
  return name == selector;
}

}  // namespace

JsonlCompareResult compare_jsonl(const std::vector<JsonlRecord>& baseline,
                                 const std::vector<JsonlRecord>& current,
                                 const JsonlCompareOptions& opts) {
  JsonlCompareResult res;
  const auto key_of = [](const JsonlRecord& r) { return r.bench + "\x1f" + r.id; };

  // Validate the metric filter and the tolerance overrides against every
  // metric name the baseline mentions (finite or null): a name that matches
  // nothing is a typo that would silently gate nothing / override nothing.
  const auto known_metric = [&](const std::string& selector) {
    for (const JsonlRecord& r : baseline) {
      for (const Metric& m : r.metrics)
        if (metric_selector_matches(selector, m.first)) return true;
      for (const std::string& n : r.null_metrics)
        if (metric_selector_matches(selector, n)) return true;
    }
    return false;
  };
  for (const std::string& selector : opts.metrics)
    if (!known_metric(selector))
      res.issues.push_back("--metrics selector '" + selector +
                           "' matches no metric in the baseline");
  // Overrides are applied by exact name lookup, so validate them the same
  // way — a prefix-form key ("sim_*") would pass the selector check yet
  // silently override nothing.
  const auto known_exact = [&](const std::string& name) {
    for (const JsonlRecord& r : baseline) {
      for (const Metric& m : r.metrics)
        if (m.first == name) return true;
      for (const std::string& n : r.null_metrics)
        if (n == name) return true;
    }
    return false;
  };
  for (const auto* overrides : {&opts.rel_tol_for, &opts.abs_tol_for})
    for (const auto& [name, tol] : *overrides) {
      (void)tol;
      if (!known_exact(name))
        res.issues.push_back("tolerance override for unknown metric '" + name + "'");
    }
  // Every tolerance must be a finite number >= 0.  A NaN makes each
  // `diff > tol` false and so passes any drift; an infinite one gates
  // nothing; a negative one is no bound at all.
  const auto check_tol = [&](const std::string& flag, double tol) {
    if (std::isfinite(tol) && tol >= 0.0) return;
    std::ostringstream os;
    os << flag << tol << " is not a finite tolerance >= 0";
    res.issues.push_back(os.str());
  };
  check_tol("--rel-tol ", opts.rel_tol);
  check_tol("--abs-tol ", opts.abs_tol);
  for (const auto& [name, tol] : opts.rel_tol_for) check_tol("--metric-rel-tol " + name + "=", tol);
  for (const auto& [name, tol] : opts.abs_tol_for) check_tol("--metric-abs-tol " + name + "=", tol);

  const auto selected = [&](const std::string& name) {
    if (opts.metrics.empty()) return true;
    for (const std::string& selector : opts.metrics)
      if (metric_selector_matches(selector, name)) return true;
    return false;
  };
  const auto flag_duplicates = [&](const std::vector<JsonlRecord>& records, const char* which) {
    std::map<std::string, std::size_t> seen;
    for (const JsonlRecord& r : records) {
      if (++seen[key_of(r)] == 2)
        res.issues.push_back(std::string("duplicate record in ") + which + ": bench='" + r.bench +
                             "' id='" + r.id + "'");
    }
  };
  flag_duplicates(baseline, "baseline");
  flag_duplicates(current, "current");

  std::map<std::string, const JsonlRecord*> cur_by_key;
  for (const JsonlRecord& r : current) cur_by_key[key_of(r)] = &r;

  std::map<std::string, bool> base_keys;
  for (const JsonlRecord& r : baseline) base_keys[key_of(r)] = true;
  for (const JsonlRecord& r : current)
    if (!base_keys.count(key_of(r))) ++res.records_only_in_current;

  for (const JsonlRecord& base : baseline) {
    const auto it = cur_by_key.find(key_of(base));
    if (it == cur_by_key.end()) {
      res.issues.push_back("missing record: bench='" + base.bench + "' id='" + base.id + "'");
      continue;
    }
    const JsonlRecord& cur = *it->second;
    ++res.records_compared;
    // A null (non-finite) metric in the baseline cannot be gated — it would
    // be silently excluded from every future comparison, which is exactly
    // backwards for a metric that was broken on the day the baseline was
    // refreshed.  Surface it as a failure so the baseline gets fixed.
    for (const std::string& name : base.null_metrics)
      if (selected(name))
        res.issues.push_back(base.id + ": baseline metric '" + name +
                             "' is null (non-finite) — ungatable; fix the bench or refresh the "
                             "baseline");
    for (const Metric& bm : base.metrics) {
      if (!selected(bm.first)) continue;
      if (!cur.metrics.empty()) {
        // Metrics keep insertion order; look up by name.
        const Metric* found = nullptr;
        for (const Metric& cm : cur.metrics)
          if (cm.first == bm.first) {
            found = &cm;
            break;
          }
        if (found) {
          ++res.metrics_compared;
          const double diff = std::abs(found->second - bm.second);
          const auto rit = opts.rel_tol_for.find(bm.first);
          const auto ait = opts.abs_tol_for.find(bm.first);
          const double rel = rit != opts.rel_tol_for.end() ? rit->second : opts.rel_tol;
          const double abs = ait != opts.abs_tol_for.end() ? ait->second : opts.abs_tol;
          const double tol = std::max(abs, rel * std::abs(bm.second));
          if (diff > tol) {
            std::ostringstream msg;
            msg.precision(10);
            msg << base.id << ": " << bm.first << " drifted " << bm.second << " -> "
                << found->second << " (|diff| " << diff << " > tol " << tol << ")";
            res.issues.push_back(msg.str());
          }
          continue;
        }
      }
      res.issues.push_back(base.id + ": metric '" + bm.first + "' missing from current run");
    }
  }
  return res;
}

}  // namespace oal::core
