#include "common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/json.h"
#include "obs/metrics.h"

namespace perfbench {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessStartSec() {
  static const double start = NowSec();
  return start;
}

void Report::Fail(const std::string& what) {
  correct = false;
  if (++problems_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value) {
  metrics_.push_back(Metric{name, unit, value});
}

void Report::Print() const {
  msv::obs::Json metrics = msv::obs::Json::Object();
  for (const Metric& m : metrics_) {
    msv::obs::Json one = msv::obs::Json::Object();
    one["value"] = std::isfinite(m.value) ? m.value : 0.0;
    one["unit"] = m.unit;
    metrics[m.name] = std::move(one);
  }
  msv::obs::Json doc = msv::obs::Json::Object();
  doc["correct"] = correct;
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  doc["metrics"] = std::move(metrics);
  std::printf("%s\n", doc.Dump().c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

uint64_t FilesBytes(msv::io::Env* env, const std::string& prefix) {
  auto files = env->ListFiles();
  if (!files.ok()) return 0;
  uint64_t total = 0;
  for (const std::string& name : *files) {
    if (name.rfind(prefix, 0) != 0) continue;
    auto file = env->OpenFile(name, /*create=*/false);
    if (!file.ok()) continue;  // deleted between list and open
    auto size = (*file)->Size();
    if (size.ok()) total += *size;
  }
  return total;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + stream);
  return rng.Next();
}

double LogUniform(Rng& rng, double lo, double hi) {
  return lo * std::exp(rng.Uniform() * std::log(hi / lo));
}

namespace {

/// An integer interval of `width` inside [0, domain).
Range IntegerRange(Rng& rng, double width, double domain) {
  const double w = std::max(1.0, std::round(width));
  const double lo = std::floor(rng.Uniform() * (domain - w));
  return Range{lo, lo + w};
}

}  // namespace

Range DayRange(Rng& rng, double selectivity) {
  return IntegerRange(rng, selectivity * kDayMax, kDayMax);
}

void Box(Rng& rng, double selectivity, Range* day, Range* amount) {
  // Split the selectivity between the two sides: the day side takes a
  // share in [sqrt(s), 1] of the square, so neither side exceeds the
  // domain and boxes run from squares to long thin strips.
  const double root = std::sqrt(selectivity);
  const double day_frac = root * std::exp(rng.Uniform() * std::log(1.0 / root));
  const double amount_frac = std::min(1.0, selectivity / day_frac);
  *day = IntegerRange(rng, day_frac * kDayMax, kDayMax);
  *amount = IntegerRange(rng, amount_frac * kAmountMax, kAmountMax);
}

std::string Between(const char* column, const Range& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s BETWEEN %.0f AND %.0f", column, r.lo,
                r.hi);
  return buf;
}

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent,
                             uint64_t request) {
  if (!enabled_) return 0;
  const uint64_t start = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  open_[id] = spans_.size();
  spans_.push_back(Span{id, parent, request, name, start, 0});
  return id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0) return;
  const uint64_t end = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = end;
  open_.erase(it);
}

namespace {

std::map<std::string, uint64_t> SelfNsByName(const std::vector<Span>& spans) {
  std::map<uint64_t, uint64_t> child_ns;  // parent id -> children's time
  for (const Span& s : spans) {
    if (s.parent != 0 && s.end_ns != 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, uint64_t> out;
  for (const Span& s : spans) {
    if (s.end_ns == 0) continue;
    const uint64_t dur = s.end_ns - s.start_ns;
    const uint64_t kids = child_ns.count(s.id) ? child_ns[s.id] : 0;
    out[s.name] += dur > kids ? dur - kids : 0;
  }
  return out;
}

}  // namespace

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"self_ns\": {");
  const auto self = SelfNsByName(spans_);
  for (auto it = self.begin(); it != self.end(); ++it) {
    std::fprintf(f, "%s\"%s\": %llu", it == self.begin() ? "" : ", ",
                 it->first.c_str(), static_cast<unsigned long long>(it->second));
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

CounterSnapshot CounterSnapshot::Take() {
  std::vector<std::pair<std::string, msv::obs::Counter*>> counters;
  msv::obs::MetricRegistry::Global().ListCounters(&counters);
  CounterSnapshot snap;
  for (const auto& [name, counter] : counters) {
    snap.values_[name] = counter->Value();
  }
  return snap;
}

uint64_t CounterSnapshot::Since(const CounterSnapshot& before,
                                const std::string& name) const {
  auto now = values_.find(name);
  if (now == values_.end()) return 0;
  auto then = before.values_.find(name);
  return now->second - (then == before.values_.end() ? 0 : then->second);
}

void HistogramTotals(const std::string& name, uint64_t* count, uint64_t* sum) {
  msv::obs::LogHistogram* h =
      msv::obs::MetricRegistry::Global().GetHistogram(name);
  *count = h->count();
  *sum = h->sum();
}

bool EnsureDir(const std::string& dir) {
  return ::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST;
}

double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  const double t = Median(traced);
  const double u = Median(untraced);
  if (t <= 0 || u <= 0) return 0.0;
  return 100.0 * (t / u - 1.0);
}

}  // namespace perfbench
