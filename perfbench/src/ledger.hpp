#pragma once

// The traced replay's cost ledger, built from outside the program: spans
// recorded around the public entry points the dispatcher calls, around
// every serve::ArtifactCache lookup and compute callback (a decorator
// cache), and around every CONGEST run (a global congest::TraceSink).
// Nothing inside src/ is instrumented.
//
// A span has a name, start and end (steady clock, ns), the span that
// caused it and the request it belongs to. Spans live in memory and are
// written out once, at exit. A layer's self time is its span's duration
// minus its direct children's durations. Stage costs the program does
// not expose as calls of their own (instance generation, fingerprinting,
// codecs, planarity, ...) are measured in a separate standalone pass and
// attached to the request's root span as `standalone` children, so they
// come out of the root's self time; whatever is left there is the
// request's unattributed time.
//
// The replay is serial: spans opened from any thread but the one that
// created the ledger are counted and dropped.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "congest/network.hpp"
#include "serve/cache.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

/// One recorded span.
struct SpanRec {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = -1;  ///< -1 while open
  int parent = -1;        ///< index of the causing span, -1 for a root
  std::uint64_t request = 0;
  bool standalone = false;  ///< measured in the standalone pass
};

/// In-memory span store with an open-span stack.
class Ledger {
 public:
  Ledger();

  /// Opens a span as a child of the innermost open one; returns its index
  /// (-1 when called from a foreign thread).
  int open(const std::string& name);
  /// Closes the span and any still-open spans nested inside it.
  void close(int span);
  /// Attaches a span measured elsewhere as a finished child of `parent`.
  void add_standalone(int parent, const std::string& name, std::int64_t start,
                      std::int64_t end);
  /// Request id stamped on spans opened from now on.
  void set_request(std::uint64_t id) { request_ = id; }

  const std::vector<SpanRec>& spans() const { return spans_; }
  /// Self time of every span (duration minus direct children), in ns.
  std::vector<std::int64_t> self_times() const;
  /// Spans attempted from a foreign thread (and dropped).
  long long foreign() const { return foreign_; }
  /// One JSON object per span, one per line.
  void write_jsonl(std::ostream& out, const std::string& workload) const;

 private:
  std::thread::id owner_;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
  std::uint64_t request_ = 0;
  long long foreign_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Ledger* ledger, const std::string& name)
      : ledger_(ledger), span_(ledger ? ledger->open(name) : -1) {}
  ~Scope() {
    if (ledger_ != nullptr) ledger_->close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return span_; }

 private:
  Ledger* ledger_;
  int span_;
};

/// Task-graph task that produces an artifact id ("spantree@v1" →
/// "spanning_tree", ...); the id itself when unknown.
std::string task_of_artifact(const std::string& algorithm);

/// Decorator over the serving cache: a "serve.cache_lookup" span around
/// every lookup and a "taskgraph.task.<task>" span around every compute
/// callback it runs, so lookup time and compute time separate. Also
/// counts lookups and computes, and keeps the artifact bytes each lookup
/// returned (the standalone pass decodes them).
class TracingCache : public plansep::serve::ArtifactCache {
 public:
  TracingCache(plansep::serve::ArtifactCache& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  Value get_or_compute(const plansep::serve::CacheKey& key,
                       const Compute& compute) override;
  bool warm(const plansep::serve::CacheKey& key) override {
    return inner_.warm(key);
  }
  plansep::serve::CacheCounters counters() const override {
    return inner_.counters();
  }
  std::size_t inflight_flights() const override {
    return inner_.inflight_flights();
  }

  long long lookups() const { return lookups_; }
  long long computes() const { return computes_; }
  /// Artifact bytes returned since the last take_returned(), by id.
  std::map<std::string, Value> take_returned();

 private:
  plansep::serve::ArtifactCache& inner_;
  Ledger& ledger_;
  long long lookups_ = 0;
  long long computes_ = 0;
  std::map<std::string, Value> returned_;
};

/// Global CONGEST sink timing each run (on_run_begin → on_run_end) as a
/// "congest.run" span and summing rounds and messages.
class TimingSink : public plansep::congest::TraceSink {
 public:
  explicit TimingSink(Ledger& ledger) : ledger_(ledger) {}
  void on_run_begin(const plansep::planar::EmbeddedGraph& g) override;
  void on_send(int round, plansep::planar::NodeId from,
               plansep::planar::NodeId to,
               const plansep::congest::Message& msg) override;
  void on_run_end(int rounds, long long messages) override;

  long long rounds() const { return rounds_; }
  long long messages() const { return messages_; }

 private:
  Ledger& ledger_;
  int open_ = -1;
  long long rounds_ = 0;
  long long messages_ = 0;
};

}  // namespace perfbench
