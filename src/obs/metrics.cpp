#include "obs/metrics.hpp"

#include <bit>
#include <utility>

#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "util/check.hpp"

namespace plansep::obs {

namespace {
thread_local MetricsRegistry* t_registry = nullptr;
}  // namespace

MetricsRegistry* set_global_registry(MetricsRegistry* reg) {
  return std::exchange(t_registry, reg);
}

MetricsRegistry* global_registry() {
  // One-time consideration of the PLANSEP_METRICS environment toggle; a
  // plain thread-local load afterwards (the whole disabled-path cost).
  static const bool bootstrapped = (ensure_env_metrics(), true);
  (void)bootstrapped;
  return t_registry;
}

void advance_rounds(long long measured) {
  if (MetricsRegistry* reg = global_registry()) reg->advance_analytic(measured);
}

void add_counter(std::string_view name, long long delta) {
  if (MetricsRegistry* reg = global_registry()) reg->add(name, delta);
}

// ------------------------------------------------------------ histogram --

void HistogramData::add(long long v) {
  if (count == 0) {
    min = max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  ++count;
  sum += v;
  const std::size_t b =
      v <= 0 ? 0
             : static_cast<std::size_t>(
                   std::bit_width(static_cast<unsigned long long>(v)));
  if (buckets.size() <= b) buckets.resize(b + 1, 0);
  ++buckets[b];
}

// ------------------------------------------------------------- registry --

MetricsRegistry::MetricsRegistry()
    : span_cap_(std::size_t{1} << 20), sample_cap_(std::size_t{1} << 16) {}

void MetricsRegistry::add(std::string_view name, long long delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

long long MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

HistogramData& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), HistogramData{}).first;
  }
  return it->second;
}

int MetricsRegistry::begin_span(const char* name) {
  if (spans_.size() >= span_cap_) {
    ++spans_dropped_;
    return -1;
  }
  const int token = static_cast<int>(spans_.size());
  SpanRecord rec;
  rec.name = name;
  rec.depth = static_cast<int>(open_stack_.size());
  rec.begin_rounds = rounds_;
  rec.begin_messages = messages_;
  spans_.push_back(std::move(rec));
  open_stack_.push_back(token);
  return token;
}

void MetricsRegistry::end_span(int token) {
  if (token < 0) return;  // dropped at begin (cap)
  PLANSEP_CHECK(!open_stack_.empty());
  // Spans are RAII-scoped, so closes arrive strictly LIFO; a mismatch
  // means a span object escaped its scope.
  PLANSEP_CHECK(open_stack_.back() == token);
  open_stack_.pop_back();
  SpanRecord& rec = spans_[static_cast<std::size_t>(token)];
  rec.end_rounds = rounds_;
  rec.end_messages = messages_;
  rec.open = false;
}

void MetricsRegistry::note(int token, const char* key, long long value) {
  if (token < 0) return;
  spans_[static_cast<std::size_t>(token)].notes.emplace_back(key, value);
}

void MetricsRegistry::record_round_sample(int active, long long delivered) {
  if (samples_.size() >= sample_cap_) {
    ++samples_dropped_;
    return;
  }
  samples_.push_back(RoundSample{rounds_, active, delivered});
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(1);
  w.key("rounds").value(rounds_);
  w.key("network_rounds").value(network_rounds_);
  w.key("analytic_rounds").value(analytic_rounds_);
  w.key("messages").value(messages_);
  w.key("spans_dropped").value(spans_dropped_);
  w.key("round_samples_dropped").value(samples_dropped_);

  w.key("counters").begin_object();
  for (const auto& [name, v] : counters_) w.key(name).value(v);
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      w.begin_array().value(HistogramData::bucket_le(i)).value(h.buckets[i]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.key("spans").begin_array();
  for (const SpanRecord& s : spans_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("depth").value(s.depth);
    w.key("begin_rounds").value(s.begin_rounds);
    w.key("end_rounds").value(s.open ? rounds_ : s.end_rounds);
    w.key("messages").value((s.open ? messages_ : s.end_messages) -
                            s.begin_messages);
    if (s.open) w.key("open").value(true);
    if (!s.notes.empty()) {
      w.key("notes").begin_object();
      for (const auto& [k, v] : s.notes) w.key(k).value(v);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

// ----------------------------------------------------------------- span --

Span::Span(const char* name) : reg_(global_registry()) {
  if (reg_ != nullptr) token_ = reg_->begin_span(name);
}

Span::~Span() {
  if (reg_ != nullptr) reg_->end_span(token_);
}

void Span::note(const char* key, long long value) {
  if (reg_ != nullptr) reg_->note(token_, key, value);
}

}  // namespace plansep::obs
