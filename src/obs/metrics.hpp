#pragma once

/// \file
/// Observability core: deterministic metrics registry, merged round clock,
/// and RAII phase spans (design constraints in DESIGN.md §8).

// Observability core: a deterministic metrics registry with counters,
// power-of-two histograms, a round/message clock, and RAII phase spans.
//
// Design constraints (DESIGN.md §8):
//
//   * Deterministic. Registry contents are a pure function of the
//     algorithm's execution: no wall-clock, no thread ids, no pointers.
//     Counters and histograms live in sorted maps; spans are recorded in
//     open order, so two runs of the same execution produce byte-identical
//     to_json().
//   * Cheap when disabled. Nothing here is touched per node or per
//     message on the disabled path: PLANSEP_SPAN and the advance_rounds /
//     add_counter helpers reduce to one atomic pointer load and a branch,
//     and they sit at phase granularity (per aggregation / per engine
//     call), not in the round loop. The per-message hooks live in
//     obs::MetricsSink, which is only consulted when a sink is installed
//     (the same test the CONGEST engine already performs for tracing).
//   * Single-threaded mutation. Like TraceSink, a registry must only be
//     mutated from the thread driving the algorithm; the global-registry
//     *pointer* is published atomically so scopes can be installed while
//     other threads run their own (un-instrumented) work.
//
// The clock has two components, folded into one timeline:
//   network rounds   — advanced by obs::MetricsSink as simulated CONGEST
//                      rounds execute;
//   analytic rounds  — advanced at the cost-model charge sites
//                      (shortcuts::local_exchange, PartwiseEngine::
//                      aggregate/blackbox_charge, the separator engine's
//                      PA multipliers), mirroring the measured ledger of
//                      shortcuts::RoundCost.
// Span begin/end snapshot this merged clock, which is what the Chrome
// trace exporter maps to timestamps (1 round = 1 µs).
//
// This header must stay free of project includes beyond util/ — it is
// included from hot headers like shortcuts/cost.hpp.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace plansep::obs {

/// Histogram over non-negative integer samples with power-of-two buckets:
/// bucket i counts samples v with bit_width(v) == i, i.e. upper bound
/// 2^i - 1 (bucket 0 catches v <= 0). Exact count/sum/min/max ride along.
struct HistogramData {
  long long count = 0;              ///< number of samples
  long long sum = 0;                ///< sum of samples
  long long min = 0;                ///< smallest sample (once count > 0)
  long long max = 0;                ///< largest sample (once count > 0)
  std::vector<long long> buckets;   ///< bucket i counts bit_width(v) == i

  /// Records one sample, growing the bucket vector as needed.
  void add(long long v);
  /// Upper bound of bucket i (inclusive): 2^i - 1.
  static long long bucket_le(std::size_t i) {
    return (1LL << static_cast<int>(i)) - 1;
  }
};

/// One closed (or still-open) phase span. Begin/end snapshot the merged
/// round clock and the message counter, so a span's cost attribution is
/// end - begin on both axes.
struct SpanRecord {
  std::string name;              ///< phase name passed to begin_span
  int depth = 0;                 ///< nesting depth at open (0 = root)
  long long begin_rounds = 0;    ///< merged clock at open
  long long end_rounds = 0;      ///< merged clock at close
  long long begin_messages = 0;  ///< message counter at open
  long long end_messages = 0;    ///< message counter at close
  bool open = true;  ///< still unclosed (process exit / export mid-phase)
  /// Deterministic key→value annotations (e.g. the charged-rounds ledger).
  std::vector<std::pair<std::string, long long>> notes;
};

/// Per-round activity sample retained for the trace exporter's counter
/// tracks. Capped (see set_round_sample_cap); drops are counted, never
/// silent.
struct RoundSample {
  long long ts = 0;         ///< merged clock value after the round
  int active = 0;           ///< nodes that took a turn this round
  long long delivered = 0;  ///< messages delivered this round
};

/// The deterministic metrics store: named counters and histograms in
/// sorted maps, the merged round clock, phase spans, and per-round trace
/// samples. Single-threaded mutation (see the file comment).
class MetricsRegistry {
 public:
  MetricsRegistry();  ///< empty registry with default span/sample caps

  // --- counters / histograms ---------------------------------------------
  /// Adds delta to the named counter, creating it at 0 first.
  void add(std::string_view name, long long delta = 1);
  /// Current value; 0 when the counter was never touched.
  long long counter(std::string_view name) const;
  /// The named histogram, created empty on first use.
  HistogramData& histogram(std::string_view name);
  /// All counters, sorted by name.
  const std::map<std::string, long long, std::less<>>& counters() const {
    return counters_;
  }
  /// All histograms, sorted by name.
  const std::map<std::string, HistogramData, std::less<>>& histograms() const {
    return histograms_;
  }

  // --- clock -------------------------------------------------------------
  /// Ticks one simulated CONGEST round onto the merged clock.
  void advance_network_round() {
    ++network_rounds_;
    ++rounds_;
  }
  /// Charges measured analytic rounds (cost-model charge sites).
  void advance_analytic(long long measured) {
    if (measured > 0) {
      analytic_rounds_ += measured;
      rounds_ += measured;
    }
  }
  void count_message() { ++messages_; }  ///< one accepted CONGEST message
  long long rounds() const { return rounds_; }  ///< merged clock value
  /// Simulated CONGEST rounds component of the clock.
  long long network_rounds() const { return network_rounds_; }
  /// Cost-model (analytic) component of the clock.
  long long analytic_rounds() const { return analytic_rounds_; }
  long long messages() const { return messages_; }  ///< message counter

  // --- spans -------------------------------------------------------------
  /// Opens a span; returns a token for end_span/note, or -1 when the span
  /// cap is hit (the drop is counted in "obs/spans_dropped").
  int begin_span(const char* name);
  /// Closes the span; must be the innermost open one (strict LIFO).
  void end_span(int token);
  /// Attaches a key→value annotation to an open span (-1 token: no-op).
  void note(int token, const char* key, long long value);
  /// All spans in open order (open ones have open == true).
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Number of currently open (unclosed) spans.
  int open_depth() const { return static_cast<int>(open_stack_.size()); }
  /// Caps the number of recorded spans; overflow counts, never grows.
  void set_span_cap(std::size_t cap) { span_cap_ = cap; }

  // --- round samples -----------------------------------------------------
  /// Appends one per-round activity sample (drops counted past the cap).
  void record_round_sample(int active, long long delivered);
  /// Retained per-round samples for the trace exporter.
  const std::vector<RoundSample>& round_samples() const { return samples_; }
  /// Caps the retained round samples; overflow counts, never grows.
  void set_round_sample_cap(std::size_t cap) { sample_cap_ = cap; }

  /// Deterministic JSON snapshot: clock, counters, histograms, spans
  /// (round samples are the trace exporter's concern). Byte-identical
  /// across runs with identical execution.
  std::string to_json() const;

 private:
  std::map<std::string, long long, std::less<>> counters_;
  std::map<std::string, HistogramData, std::less<>> histograms_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_stack_;  // indices into spans_, innermost last
  long long rounds_ = 0;
  long long network_rounds_ = 0;
  long long analytic_rounds_ = 0;
  long long messages_ = 0;
  std::vector<RoundSample> samples_;
  std::size_t span_cap_;
  std::size_t sample_cap_;
  long long spans_dropped_ = 0;
  long long samples_dropped_ = 0;
};

/// Installs reg as the process-global registry (nullptr detaches); returns
/// the previous one. Atomic publish — see the threading note above.
MetricsRegistry* set_global_registry(MetricsRegistry* reg);
/// The current global registry, or nullptr when metrics are disabled. The
/// first call considers the PLANSEP_METRICS environment bootstrap
/// (obs/sink.hpp).
MetricsRegistry* global_registry();

/// Charges measured analytic rounds to the global registry; no-op when
/// metrics are disabled. This is the hook the cost model calls.
void advance_rounds(long long measured);
/// Bumps a global counter; no-op when disabled.
void add_counter(std::string_view name, long long delta = 1);

/// RAII phase span against the global registry. Resolves the registry once
/// at construction, so a scope that closes mid-span still balances.
class Span {
 public:
  explicit Span(const char* name);  ///< opens the span (no-op if disabled)
  ~Span();                          ///< closes it
  Span(const Span&) = delete;             ///< non-copyable
  Span& operator=(const Span&) = delete;  ///< non-copyable
  /// Attaches a key→value annotation (no-op when disabled/dropped).
  void note(const char* key, long long value);

 private:
  MetricsRegistry* reg_;
  int token_ = -1;
};

/// Token-pasting helper for PLANSEP_SPAN (two levels force expansion).
#define PLANSEP_OBS_CONCAT_(a, b) a##b
/// Token-pasting helper for PLANSEP_SPAN.
#define PLANSEP_OBS_CONCAT(a, b) PLANSEP_OBS_CONCAT_(a, b)
/// Anonymous RAII span covering the rest of the enclosing scope.
#define PLANSEP_SPAN(name) \
  ::plansep::obs::Span PLANSEP_OBS_CONCAT(plansep_span_, __LINE__)(name)

}  // namespace plansep::obs
