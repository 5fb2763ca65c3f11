#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace iov::obs {
namespace {

/// Replaces wire-reserved characters so names and label values can never
/// corrupt the single-line snapshot encoding.
std::string sanitize(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    switch (c) {
      case ',':
      case ';':
      case '=':
      case '{':
      case '}':
      case '|':
      case '\n':
      case '\r':
        c = '_';
        break;
      default:
        break;
    }
  }
  return out;
}

Labels sanitize_labels(Labels labels) {
  for (auto& [k, v] : labels) {
    k = sanitize(k);
    v = sanitize(v);
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Shortest %g rendering that round-trips exactly: "1e-06" instead of
/// the %.17g noise "9.9999999999999995e-07" in exports and on the wire.
std::string format_double(double v) {
  for (int precision = 1; precision < 17; ++precision) {
    std::string s = strf("%.*g", precision, v);
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return strf("%.17g", v);
}

// Counters and gauges travel as integers but are held as doubles, which
// round the largest parsable values past the integer range, where a cast
// is undefined: clamp (gauges to +-INT64_MAX, what parse_i64 reads back).
unsigned long long wire_u64(double v) {
  return v >= 0x1p64 ? ~0ULL : v > 0 ? static_cast<unsigned long long>(v) : 0;
}

long long wire_i64(double v) {
  constexpr long long kMax = 0x7fffffffffffffffLL;
  if (std::isnan(v)) return 0;
  return v >= 0x1p63 ? kMax : v <= -0x1p63 ? -kMax : static_cast<long long>(v);
}

bool parse_double(std::string_view s, double* out) {
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end != nullptr && *end == '\0' && !buf.empty();
}

bool parse_i64(std::string_view s, i64* out) {
  bool neg = false;
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
    neg = s[0] == '-';
    s.remove_prefix(1);
  }
  unsigned long long u = 0;
  if (!parse_u64(s, 0x7fffffffffffffffull, &u)) return false;
  *out = neg ? -static_cast<i64>(u) : static_cast<i64>(u);
  return true;
}

void append_wire_labels(const Labels& labels, std::string* out) {
  if (labels.empty()) return;
  out->push_back('{');
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out->push_back(';');
    *out += labels[i].first;
    out->push_back('=');
    *out += labels[i].second;
  }
  out->push_back('}');
}

bool parse_wire_labels(std::string_view s, Labels* out) {
  for (std::string_view part : split(s, ';')) {
    auto eq = part.find('=');
    if (eq == std::string_view::npos) return false;
    out->emplace_back(std::string(part.substr(0, eq)),
                      std::string(part.substr(eq + 1)));
  }
  return true;
}

std::string prometheus_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Renders `{k="v",...}`; `extra` appends one more pair (used for `le`).
std::string prometheus_labels(const Labels& labels,
                              const std::pair<std::string, std::string>*
                                  extra = nullptr) {
  if (labels.empty() && !extra) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k;
    out += "=\"";
    out += prometheus_escape(v);
    out += "\"";
  }
  if (extra) {
    if (!first) out.push_back(',');
    out += extra->first;
    out += "=\"";
    out += prometheus_escape(extra->second);
    out += "\"";
  }
  out.push_back('}');
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strf("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<u64>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double x) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<u64> Histogram::bucket_counts() const {
  std::vector<u64> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

const std::vector<double>& default_latency_bounds() {
  // Powers of four from 1us to ~16.8s: 13 buckets spans sub-socket-write
  // latencies up to the longest throttle waits the benches provoke.
  static const std::vector<double> kBounds = {
      1e-6,       4e-6,       1.6e-5,   6.4e-5,   2.56e-4,  1.024e-3,
      4.096e-3,   1.6384e-2,  6.5536e-2, 0.262144, 1.048576, 4.194304,
      16.777216};
  return kBounds;
}

// --- MetricsSnapshot -------------------------------------------------------

void MetricsSnapshot::add_label(const std::string& key,
                                const std::string& value) {
  std::string k = sanitize(key);
  std::string v = sanitize(value);
  for (MetricSample& s : samples) {
    bool has = false;
    for (const auto& [lk, lv] : s.labels) {
      if (lk == k) {
        has = true;
        break;
      }
    }
    if (!has) {
      s.labels.emplace_back(k, v);
      std::sort(s.labels.begin(), s.labels.end());
    }
  }
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
}

std::string MetricsSnapshot::serialize() const {
  std::string out;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    if (i) out.push_back('|');
    switch (s.kind) {
      case MetricKind::kCounter:
        out.push_back('c');
        break;
      case MetricKind::kGauge:
        out.push_back('g');
        break;
      case MetricKind::kHistogram:
        out.push_back('h');
        break;
    }
    out.push_back(':');
    out += s.name;
    append_wire_labels(s.labels, &out);
    out.push_back(',');
    switch (s.kind) {
      case MetricKind::kCounter:
        out += strf("%llu", wire_u64(s.value));
        break;
      case MetricKind::kGauge:
        out += strf("%lld", wire_i64(s.value));
        break;
      case MetricKind::kHistogram: {
        for (std::size_t b = 0; b < s.hist.counts.size(); ++b) {
          if (b) out.push_back('/');
          if (b < s.hist.bounds.size()) {
            out += format_double(s.hist.bounds[b]);
          } else {
            out += "inf";
          }
          out += strf(":%llu",
                      static_cast<unsigned long long>(s.hist.counts[b]));
        }
        out += strf(",%llu,", static_cast<unsigned long long>(s.hist.count));
        out += format_double(s.hist.sum);
        break;
      }
    }
  }
  return out;
}

bool MetricsSnapshot::parse(std::string_view line, MetricsSnapshot* out) {
  out->samples.clear();
  if (trim(line).empty()) return true;
  for (std::string_view record : split(line, '|')) {
    auto colon = record.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    std::string_view kind_sv = record.substr(0, colon);
    std::string_view rest = record.substr(colon + 1);

    MetricSample s;
    // Name runs to the first '{' (labels follow) or ',' (payload follows).
    auto name_end = rest.find_first_of("{,");
    if (name_end == std::string_view::npos || name_end == 0) return false;
    s.name = std::string(rest.substr(0, name_end));
    rest.remove_prefix(name_end);
    if (rest[0] == '{') {
      auto close = rest.find('}');
      if (close == std::string_view::npos) return false;
      if (!parse_wire_labels(rest.substr(1, close - 1), &s.labels))
        return false;
      rest.remove_prefix(close + 1);
    }
    if (rest.empty() || rest[0] != ',') return false;
    std::string_view payload = rest.substr(1);

    if (kind_sv == "c") {
      s.kind = MetricKind::kCounter;
      unsigned long long v = 0;
      if (!parse_u64(payload, ~0ull, &v)) return false;
      s.value = static_cast<double>(v);
    } else if (kind_sv == "g") {
      s.kind = MetricKind::kGauge;
      i64 v = 0;
      if (!parse_i64(payload, &v)) return false;
      s.value = static_cast<double>(v);
    } else if (kind_sv == "h") {
      s.kind = MetricKind::kHistogram;
      auto fields = split(payload, ',');
      if (fields.size() != 3) return false;
      for (std::string_view bucket : split(fields[0], '/')) {
        auto bc = bucket.rfind(':');
        if (bc == std::string_view::npos) return false;
        std::string_view bound_sv = bucket.substr(0, bc);
        unsigned long long n = 0;
        if (!parse_u64(bucket.substr(bc + 1), ~0ull, &n)) return false;
        if (bound_sv != "inf") {
          // Finite only: an infinite or NaN bound does not serialize back
          // to what this parser reads.
          double bound = 0;
          if (!parse_double(bound_sv, &bound) || !std::isfinite(bound)) {
            return false;
          }
          s.hist.bounds.push_back(bound);
        }
        s.hist.counts.push_back(n);
      }
      if (s.hist.counts.size() != s.hist.bounds.size() + 1) return false;
      unsigned long long n = 0;
      if (!parse_u64(fields[1], ~0ull, &n)) return false;
      s.hist.count = n;
      if (!parse_double(fields[2], &s.hist.sum)) return false;
    } else {
      continue;  // unknown kind from a newer node: skip, keep the rest
    }
    out->samples.push_back(std::move(s));
  }
  return true;
}

std::string MetricsSnapshot::to_prometheus() const {
  // Group samples by metric name in first-appearance order so a merged
  // multi-node snapshot still emits exactly one `# TYPE` line per name.
  std::vector<std::string> order;
  std::vector<std::vector<const MetricSample*>> groups;
  for (const MetricSample& s : samples) {
    std::size_t i = 0;
    for (; i < order.size(); ++i)
      if (order[i] == s.name) break;
    if (i == order.size()) {
      order.push_back(s.name);
      groups.emplace_back();
    }
    groups[i].push_back(&s);
  }

  std::string out;
  for (std::size_t g = 0; g < order.size(); ++g) {
    out += strf("# TYPE %s %s\n", order[g].c_str(),
                kind_name(groups[g][0]->kind));
    for (const MetricSample* s : groups[g]) {
      switch (s->kind) {
        case MetricKind::kCounter:
        case MetricKind::kGauge:
          out += s->name + prometheus_labels(s->labels) + " " +
                 format_double(s->value) + "\n";
          break;
        case MetricKind::kHistogram: {
          u64 cumulative = 0;
          for (std::size_t b = 0; b < s->hist.counts.size(); ++b) {
            cumulative += s->hist.counts[b];
            std::pair<std::string, std::string> le{
                "le", b < s->hist.bounds.size()
                          ? format_double(s->hist.bounds[b])
                          : "+Inf"};
            out += s->name + "_bucket" + prometheus_labels(s->labels, &le) +
                   strf(" %llu\n", static_cast<unsigned long long>(cumulative));
          }
          out += s->name + "_sum" + prometheus_labels(s->labels) + " " +
                 format_double(s->hist.sum) + "\n";
          out += s->name + "_count" + prometheus_labels(s->labels) +
                 strf(" %llu\n", static_cast<unsigned long long>(s->hist.count));
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    if (i) out.push_back(',');
    out += "\n  {\"name\":\"" + json_escape(s.name) + "\",\"type\":\"" +
           kind_name(s.kind) + "\",\"labels\":{";
    for (std::size_t l = 0; l < s.labels.size(); ++l) {
      if (l) out.push_back(',');
      out += "\"" + json_escape(s.labels[l].first) + "\":\"" +
             json_escape(s.labels[l].second) + "\"";
    }
    out += "}";
    if (s.kind == MetricKind::kHistogram) {
      out += ",\"count\":" +
             strf("%llu", static_cast<unsigned long long>(s.hist.count));
      out += ",\"sum\":" + format_double(s.hist.sum);
      out += ",\"buckets\":[";
      for (std::size_t b = 0; b < s.hist.counts.size(); ++b) {
        if (b) out.push_back(',');
        out += "{\"le\":";
        if (b < s.hist.bounds.size()) {
          out += format_double(s.hist.bounds[b]);
        } else {
          out += "\"+Inf\"";
        }
        out += strf(",\"count\":%llu}",
                    static_cast<unsigned long long>(s.hist.counts[b]));
      }
      out += "]";
    } else {
      out += ",\"value\":" + format_double(s.value);
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

std::string MetricsSnapshot::to_csv() const {
  std::string out = "name,kind,labels,value,count,sum,buckets\n";
  for (const MetricSample& s : samples) {
    std::string labels;
    for (std::size_t l = 0; l < s.labels.size(); ++l) {
      if (l) labels.push_back(';');
      labels += s.labels[l].first + "=" + s.labels[l].second;
    }
    out += s.name;
    out += ",";
    out += kind_name(s.kind);
    out += "," + labels + ",";
    if (s.kind == MetricKind::kHistogram) {
      out += strf(",%llu,", static_cast<unsigned long long>(s.hist.count));
      out += format_double(s.hist.sum);
      out += ",";
      for (std::size_t b = 0; b < s.hist.counts.size(); ++b) {
        if (b) out.push_back('/');
        if (b < s.hist.bounds.size()) {
          out += format_double(s.hist.bounds[b]);
        } else {
          out += "inf";
        }
        out += strf(":%llu", static_cast<unsigned long long>(s.hist.counts[b]));
      }
    } else {
      out += format_double(s.value) + ",,,";
    }
    out += "\n";
  }
  return out;
}

// --- MetricsRegistry -------------------------------------------------------

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    std::string_view name, Labels labels, MetricKind kind,
    const std::vector<double>* bounds) {
  std::string sane_name = sanitize(name);
  Labels sane_labels = sanitize_labels(std::move(labels));
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : entries_) {
    if (e->name == sane_name && e->labels == sane_labels) return *e;
  }
  auto e = std::make_unique<Entry>();
  e->name = std::move(sane_name);
  e->labels = std::move(sane_labels);
  e->kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      e->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      e->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      e->histogram = std::make_unique<Histogram>(*bounds);
      break;
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  Entry& e =
      find_or_create(name, std::move(labels), MetricKind::kCounter, nullptr);
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  Entry& e =
      find_or_create(name, std::move(labels), MetricKind::kGauge, nullptr);
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, Labels labels,
                                      const std::vector<double>& bounds) {
  Entry& e =
      find_or_create(name, std::move(labels), MetricKind::kHistogram, &bounds);
  return *e.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  out.samples.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.name = e->name;
    s.kind = e->kind;
    s.labels = e->labels;
    switch (e->kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e->counter->value());
        break;
      case MetricKind::kGauge:
        s.value = static_cast<double>(e->gauge->value());
        break;
      case MetricKind::kHistogram:
        s.hist.bounds = e->histogram->bounds();
        s.hist.counts = e->histogram->bucket_counts();
        s.hist.count = e->histogram->count();
        s.hist.sum = e->histogram->sum();
        break;
    }
    out.samples.push_back(std::move(s));
  }
  return out;
}

}  // namespace iov::obs
