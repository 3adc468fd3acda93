#include "core/results_io.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace oal::core {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          // Through unsigned char: a plain (signed) char would sign-extend
          // high-bit bytes into a huge %x value if one ever reached here.
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN/inf
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

JsonlWriter::JsonlWriter(const std::string& path, Mode mode) {
  if (path.empty()) return;
  out_.open(path, std::ios::out | (mode == Mode::kAppend ? std::ios::app : std::ios::trunc));
  if (!out_) throw std::runtime_error("JsonlWriter: cannot open '" + path + "'");
}

void JsonlWriter::write_metrics(const std::string& bench, const std::string& id,
                                const Metrics& metrics) {
  if (!enabled()) return;
  out_ << "{\"bench\":\"" << json_escape(bench) << "\",\"id\":\"" << json_escape(id)
       << "\",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out_ << ",";
    out_ << "\"" << json_escape(metrics[i].first) << "\":" << json_number(metrics[i].second);
  }
  out_ << "}}\n";
  out_.flush();
}

void JsonlWriter::write(const std::string& bench, const AnyResult& result) {
  write_metrics(bench, result.id(), result.metrics());
}

void JsonlWriter::write(const std::string& bench, const std::vector<AnyResult>& results) {
  for (const AnyResult& r : results) write(bench, r);
}

}  // namespace oal::core
