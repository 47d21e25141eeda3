#pragma once

/// \file
/// CONGEST message-trace capture: TraceRecorder, trace diffing, and the
/// ScopedTraceCapture RAII installer.

// CONGEST message-trace capture.
//
// An opt-in recorder that hooks into congest::Network (TraceSink) and
// stores every message of every run it observes: (run, round, from, to,
// payload). The protocols are deterministic, so two captures of the same
// seeded instance must be byte-identical — diff_traces pinpoints the first
// divergence when a replay disagrees with the original failing run, and
// the recorded stream doubles as the ground truth for the per-edge
// per-round bandwidth oracle (oracles.hpp).
//
// ScopedTraceCapture installs a recorder as the calling thread's sink for
// the duration of a scope, so traffic of networks constructed deep inside
// the pipeline (the BFS wave of PartwiseEngine, message-level aggregates)
// is captured without plumbing.

#include <string>
#include <vector>

#include "congest/network.hpp"

namespace plansep::testing {

/// One captured message send.
struct TraceEvent {
  int run = 0;    ///< index of the Network::run this message belongs to
  int round = 0;  ///< round within that run
  congest::NodeId from = planar::kNoNode;  ///< sender
  congest::NodeId to = planar::kNoNode;    ///< recipient
  congest::Message msg;                    ///< the payload
};

/// Field-wise equality.
bool operator==(const TraceEvent& a, const TraceEvent& b);

/// TraceSink that stores every message of every run it observes, in the
/// deterministic acceptance order the engine replays.
class TraceRecorder : public congest::TraceSink {
 public:
  void on_run_begin(const congest::EmbeddedGraph& g) override;
  void on_send(int round, congest::NodeId from, congest::NodeId to,
               const congest::Message& msg) override;

  /// All captured events in acceptance order.
  const std::vector<TraceEvent>& events() const { return events_; }
  long long total_messages() const {  ///< captured event count
    return static_cast<long long>(events_.size());
  }
  int runs() const { return runs_; }  ///< Network::run calls observed
  void clear();                       ///< drops all captured state

  /// "run=0 r=12 3->4 tag=7 a=1 b=0 c=0"
  static std::string format(const TraceEvent& e);

 private:
  std::vector<TraceEvent> events_;
  int runs_ = 0;
};

/// Index of the first event where the traces differ (the shorter trace's
/// length when one is a prefix of the other), or -1 when identical.
int first_divergence(const std::vector<TraceEvent>& a,
                     const std::vector<TraceEvent>& b);

/// Human-readable diff around the first divergence; "" when identical.
std::string diff_traces(const std::vector<TraceEvent>& a,
                        const std::vector<TraceEvent>& b, int context = 3);

/// RAII: installs `rec` as the calling thread's trace sink, restoring the
/// thread's previous sink on destruction.
class ScopedTraceCapture {
 public:
  explicit ScopedTraceCapture(TraceRecorder& rec);  ///< installs rec
  ~ScopedTraceCapture();                            ///< restores previous
  ScopedTraceCapture(const ScopedTraceCapture&) = delete;  ///< non-copyable
  ScopedTraceCapture& operator=(const ScopedTraceCapture&) = delete;  ///< non-copyable

 private:
  congest::TraceSink* prev_;
};

}  // namespace plansep::testing
