#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.h"

namespace ls2::obs {

double exact_percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Histogram::Histogram(HistogramConfig cfg) : cfg_(cfg) {
  LS2_CHECK(cfg_.lo > 0 && cfg_.hi > cfg_.lo && cfg_.growth > 1.0)
      << "histogram config lo=" << cfg_.lo << " hi=" << cfg_.hi
      << " growth=" << cfg_.growth;
  inv_log_growth_ = 1.0 / std::log(cfg_.growth);
  const size_t log_buckets = static_cast<size_t>(
      std::ceil(std::log(cfg_.hi / cfg_.lo) * inv_log_growth_));
  buckets_.assign(log_buckets + 2, 0);  // + underflow + overflow
}

size_t Histogram::bucket_index(double value) const {
  if (!(value >= cfg_.lo)) return 0;  // underflow (also NaN-safe)
  if (value >= cfg_.hi) return buckets_.size() - 1;
  const size_t idx =
      1 + static_cast<size_t>(std::log(value / cfg_.lo) * inv_log_growth_);
  return std::min(idx, buckets_.size() - 2);
}

double Histogram::bucket_lower(size_t i) const {
  if (i == 0) return 0.0;
  if (i >= buckets_.size() - 1) return cfg_.hi;
  return cfg_.lo * std::pow(cfg_.growth, static_cast<double>(i - 1));
}

double Histogram::bucket_upper(size_t i) const {
  if (i == 0) return cfg_.lo;
  if (i >= buckets_.size() - 1) return count_ > 0 ? std::max(max_, cfg_.hi) : cfg_.hi;
  return cfg_.lo * std::pow(cfg_.growth, static_cast<double>(i));
}

void Histogram::record(double value) {
  buckets_[bucket_index(value)] += 1;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += 1;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  LS2_CHECK(buckets_.size() == other.buckets_.size() && cfg_.lo == other.cfg_.lo &&
            cfg_.growth == other.cfg_.growth)
      << "merging histograms with different bucket layouts";
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    min_ = count_ > 0 ? std::min(min_, other.min_) : other.min_;
    max_ = count_ > 0 ? std::max(max_, other.max_) : other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Continuous rank, matching exact_percentile's convention on the sorted
  // sample: rank 0 is the minimum, rank count-1 the maximum.
  const double rank = q * static_cast<double>(count_ - 1);
  double cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const double in_bucket = static_cast<double>(buckets_[i]);
    // The bucket covers continuous ranks [cum, cum + in_bucket).
    if (rank < cum + in_bucket) {
      const double frac =
          in_bucket <= 1 ? 0.5 : (rank - cum + 0.5) / in_bucket;
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      const double est = lo + (hi - lo) * frac;
      return std::clamp(est, min_, max_);
    }
    cum += in_bucket;
  }
  return max_;
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

namespace {

// The entry for `name`, created from `make()` on first use. Finding an
// existing entry allocates nothing.
template <typename V, typename Make>
V& find_or_add(MetricsRegistry::NameMap<V>& map, std::string_view name, const Make& make) {
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), make()).first;
  return it->second;
}

}  // namespace

int64_t& MetricsRegistry::counter(std::string_view name) {
  return find_or_add(counters_, name, [] { return int64_t{0}; });
}

double& MetricsRegistry::gauge(std::string_view name) {
  return find_or_add(gauges_, name, [] { return 0.0; });
}

Histogram& MetricsRegistry::histogram(std::string_view name, HistogramConfig cfg) {
  return find_or_add(histograms_, name, [&] { return Histogram(cfg); });
}

void MetricsRegistry::set_label(const std::string& key, const std::string& value) {
  labels_[key] = value;
}

namespace {

// Shortest round-trip-exact formatting: snapshots must be byte-identical
// across identical runs AND stable to read.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer a shorter representation when it round-trips exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    double back = 0;
    std::sscanf(shorter, "%lf", &back);
    if (back == v) return shorter;
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string prom_name(const std::string& name) {
  std::string out = "ls2_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{";
  os << "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels_) {
    os << (first ? "" : ",") << "\"" << json_escape(k) << "\":\"" << json_escape(v)
       << "\"";
    first = false;
  }
  os << "},\"counters\":{";
  first = true;
  for (const auto& [k, v] : counters_) {
    os << (first ? "" : ",") << "\"" << json_escape(k) << "\":" << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : gauges_) {
    os << (first ? "" : ",") << "\"" << json_escape(k) << "\":" << fmt_double(v);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [k, h] : histograms_) {
    os << (first ? "" : ",") << "\"" << json_escape(k) << "\":{";
    os << "\"count\":" << h.count() << ",\"sum\":" << fmt_double(h.sum())
       << ",\"min\":" << fmt_double(h.min()) << ",\"max\":" << fmt_double(h.max())
       << ",\"p50\":" << fmt_double(h.quantile(0.50))
       << ",\"p90\":" << fmt_double(h.quantile(0.90))
       << ",\"p99\":" << fmt_double(h.quantile(0.99)) << ",\"buckets\":{";
    bool bfirst = true;
    for (size_t i = 0; i < h.buckets().size(); ++i) {
      if (h.buckets()[i] == 0) continue;
      os << (bfirst ? "" : ",") << "\"" << i << "\":" << h.buckets()[i];
      bfirst = false;
    }
    os << "}}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  std::string label_str;
  {
    std::ostringstream ls;
    bool first = true;
    for (const auto& [k, v] : labels_) {
      ls << (first ? "" : ",") << prom_name(k).substr(4) << "=\"" << v << "\"";
      first = false;
    }
    label_str = ls.str();
  }
  auto series = [&](const std::string& name, const std::string& extra) {
    std::string out = name;
    if (!label_str.empty() || !extra.empty()) {
      out += "{" + label_str;
      if (!label_str.empty() && !extra.empty()) out += ",";
      out += extra + "}";
    }
    return out;
  };
  for (const auto& [k, v] : counters_) {
    const std::string n = prom_name(k);
    os << "# TYPE " << n << " counter\n" << series(n, "") << " " << v << "\n";
  }
  for (const auto& [k, v] : gauges_) {
    const std::string n = prom_name(k);
    os << "# TYPE " << n << " gauge\n" << series(n, "") << " " << fmt_double(v) << "\n";
  }
  for (const auto& [k, h] : histograms_) {
    const std::string n = prom_name(k);
    os << "# TYPE " << n << " summary\n";
    for (double q : {0.5, 0.9, 0.99}) {
      os << series(n, "quantile=\"" + fmt_double(q) + "\"") << " "
         << fmt_double(h.quantile(q)) << "\n";
    }
    os << series(n + "_sum", "") << " " << fmt_double(h.sum()) << "\n";
    os << series(n + "_count", "") << " " << h.count() << "\n";
  }
  return os.str();
}

void MetricsRegistry::clear() {
  ++generation_;
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  labels_.clear();
}

}  // namespace ls2::obs
