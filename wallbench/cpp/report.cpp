#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.hpp"

namespace wallbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << v;
  return out.str();
}

}  // namespace

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t h = values.size() / 2;
  return values.size() % 2 == 1 ? values[h]
                                : (values[h - 1] + values[h]) / 2.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double quiet_median(const std::vector<Window>& windows) {
  std::vector<double> steal;
  for (const auto& w : windows) steal.push_back(w.steal);
  const double limit = quantile(steal, kQuietShare);
  std::vector<double> kept;
  for (const auto& w : windows) {
    if (w.steal <= limit) {
      kept.insert(kept.end(), w.samples.begin(), w.samples.end());
    }
  }
  return median(kept);
}

bool write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
  for (const auto& log : logs) {
    for (const auto& span : log.spans) origin = std::min(origin, span.start_ns);
  }
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& log : logs) {
    out << (first ? "\n" : ",\n")
        << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << log.thread << ", \"args\": {\"name\": \"bench-" << log.thread
        << "\"}}";
    first = false;
    for (const auto& span : log.spans) {
      out << ",\n{\"name\": \"" << span.name << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << log.thread
          << ", \"ts\": "
          << number(static_cast<double>(span.start_ns - origin) / 1e3)
          << ", \"dur\": "
          << number(static_cast<double>(span.end_ns - span.start_ns) / 1e3)
          << ", \"args\": {\"" << (span.root ? "id" : "parent")
          << "\": " << span.id << "}}";
    }
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

double span_p50_us(const std::vector<SpanLog>& logs, const char* name) {
  std::vector<double> us;
  for (const auto& log : logs) {
    for (const auto& span : log.spans) {
      if (std::strcmp(span.name, name) == 0) {
        us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return median(us);
}

}  // namespace wallbench
