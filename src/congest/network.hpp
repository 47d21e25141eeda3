#pragma once

/// \file
/// Synchronous CONGEST network simulator: the serial round engine and its
/// opt-in trace-sink and fault-injection hooks.

// Synchronous CONGEST network simulator.
//
// The CONGEST model (§1): nodes run a synchronous, failure-free protocol;
// per round, each node may send one O(log n)-bit message over each incident
// link. A Message carries a tag plus three 64-bit words — a fixed small
// number of machine words, i.e. O(log n) bits; the per-edge per-round
// budget of a single message is enforced.
//
// Execution is event-driven: a node's round() handler runs only when it
// has incoming messages or explicitly requested a wake-up, so quiescent
// regions cost nothing. The network stops at global quiescence (no
// messages in flight, no wake-ups) or after max_rounds.
//
// Storage is structure-of-arrays: one flat delivery slab per round
// (contiguous Incoming records grouped by recipient, addressed by per-node
// offset/length arrays) instead of per-node inbox vectors, so a round's
// mail is two contiguous streams — one written at delivery, one read at
// the turns — with no per-node allocation anywhere on the hot path
// (DESIGN.md §7).
//
// A run executes start to finish on the thread that calls run(): turns in
// ascending node order, then delivery in send order. Round and message
// counts are therefore pure functions of the program and the graph.
//
// The clean model can be bent on purpose: an opt-in FaultInjector hook
// lets a deterministic fault plan drop, duplicate, stall or reorder
// deliveries and crash/restart nodes at chosen rounds (src/faults/,
// docs/FAULT_MODEL.md). With no injector installed the engine pays one
// branch per round.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "planar/embedded_graph.hpp"

namespace plansep::congest {

using planar::DartId;         ///< directed edge (dart) identifier
using planar::EmbeddedGraph;  ///< embedded planar graph
using planar::NodeId;         ///< node identifier

/// One CONGEST message: a tag plus three 64-bit words — a fixed small
/// number of machine words, i.e. O(log n) bits.
struct Message {
  std::uint8_t tag = 0;  ///< protocol-defined message kind
  std::int64_t a = 0;    ///< first payload word
  std::int64_t b = 0;    ///< second payload word
  std::int64_t c = 0;    ///< third payload word
};

/// A delivered message as the recipient sees it.
struct Incoming {
  NodeId from = planar::kNoNode;  ///< sending neighbor
  Message msg;                    ///< the message itself
};

/// A node's inbox for one round: a read-only contiguous slice of the
/// network's flat delivery slab. Valid only for the duration of the
/// round() call it is handed to.
using InboxView = std::span<const Incoming>;

class Network;

/// Observer of message-level execution (opt-in; the proptest harness's
/// trace recorder in src/testing/trace.hpp is the canonical sink). Hooks
/// fire synchronously inside Network::run, on the thread driving it, in
/// execution order; sinks must not mutate the network. A sink needs no
/// internal locking as long as it observes a single network at a time.
class TraceSink {
 public:
  virtual ~TraceSink() = default;  ///< virtual: deleted through base

  /// A fresh run() started on a network over g.
  virtual void on_run_begin(const EmbeddedGraph& g) { (void)g; }
  /// A message was accepted for delivery (after the bandwidth check).
  virtual void on_send(int round, NodeId from, NodeId to,
                       const Message& msg) = 0;
  /// A round finished: `activated` nodes will run next round, `delivered`
  /// messages were staged this round.
  virtual void on_round_end(int round, int activated, long long delivered) {
    (void)round, (void)activated, (void)delivered;
  }
  /// The run reached quiescence (or max_rounds) after `rounds` rounds and
  /// `messages` accepted sends. Not called when the program throws — a
  /// sink that folds per-run state should treat the next on_run_begin as
  /// an implicit end (obs::MetricsSink does).
  virtual void on_run_end(int rounds, long long messages) {
    (void)rounds, (void)messages;
  }
};

/// Installs a process-wide sink that every Network picks up at run() time
/// unless it has its own (set_trace_sink). Returns the previous sink; pass
/// nullptr to detach. The pointer is published atomically, so installing or
/// detaching a sink is safe even while other threads construct or run
/// networks; callbacks themselves are sequenced by each run() as documented
/// on TraceSink.
TraceSink* set_global_trace_sink(TraceSink* sink);
/// The current process-wide trace sink (nullptr when tracing is disabled).
TraceSink* global_trace_sink();

/// Fault-injection hook consulted by Network::run (opt-in; the seeded
/// deterministic implementation is faults::FaultController, and the full
/// fault taxonomy is specified in docs/FAULT_MODEL.md).
///
/// Queries arrive in execution order on the thread driving run(): crash
/// decisions before the round's turns, delivery fates and reorder seeds
/// after all turns (at the delivery stage). Implementations must answer as
/// pure functions of their own immutable state plus the query arguments
/// (no wall clock, no per-call randomness) for injected faults to replay.
///
/// When no injector is installed the engine pays exactly one branch per
/// round for the feature.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;  ///< virtual: deleted through base

  /// Delivery fate of one accepted message (see fate()).
  enum class Fate : std::uint8_t {
    kDeliver,    ///< deliver normally (readable next round)
    kDrop,       ///< message is lost; the sender is not informed
    kDuplicate,  ///< two copies land in the recipient's inbox
    kStall,      ///< delivery is delayed by exactly one extra round
  };

  /// A fresh run() started on a network over g.
  virtual void on_run_begin(const EmbeddedGraph& g) { (void)g; }
  /// The run finished (quiescence or max_rounds). Not called when the
  /// program throws; treat the next on_run_begin as an implicit end.
  virtual void on_run_end() {}
  /// True when v is crashed in `round`: it loses its turn and any pending
  /// mail. The engine parks the node and grants it one wake-up turn (with
  /// an empty inbox) in the first round the injector reports it alive —
  /// the crash-restart contract of docs/FAULT_MODEL.md.
  virtual bool crashed(int round, NodeId v) = 0;
  /// Fate of the message accepted on from→to in `round`. Queried once per
  /// accepted message, at the delivery stage.
  virtual Fate fate(int round, NodeId from, NodeId to) = 0;
  /// Nonzero: deterministically shuffle the inbox `to` received this round
  /// with this seed (adversarial intra-round delivery order). Zero: keep
  /// the canonical delivery order.
  virtual std::uint64_t reorder_seed(int round, NodeId to) = 0;
};

/// Installs a fault injector for the calling thread: every Network whose
/// run() executes on this thread picks it up unless it has its own
/// (set_fault_injector). Networks on other threads never see it. Returns
/// the thread's previous injector; pass nullptr to detach.
FaultInjector* set_thread_fault_injector(FaultInjector* injector);
/// The calling thread's injector (nullptr when faults are disabled).
FaultInjector* thread_fault_injector();

/// Empty remnant of the retired round-engine knobs. The engine has no
/// configuration; this type and ScopedThreadConfig are kept only so that
/// perfbench/src/replay.cpp, which pins the engine serial with
/// `ScopedThreadConfig serial(ThreadConfig{})`, keeps building.
struct ThreadConfig {};

/// No-op scope guard over ThreadConfig, kept only for the same
/// perfbench line.
class ScopedThreadConfig {
 public:
  /// Does nothing: there is no engine configuration to install.
  explicit ScopedThreadConfig(const ThreadConfig&) {}
};

/// Per-node send/wake interface handed to NodeProgram::round.
class Ctx {
 public:
  /// Sends msg to the given neighbor this round. At most one message per
  /// neighbor per round (CONGEST bandwidth); violations throw.
  void send(NodeId neighbor, const Message& msg);

  /// Ensures this node's round() is invoked next round even without mail.
  void wake_next_round();

  /// This node's id.
  NodeId self() const { return self_; }
  /// The current round number (0-based).
  int round() const { return round_; }

 private:
  friend class Network;
  Network* net_ = nullptr;
  NodeId self_ = planar::kNoNode;
  int round_ = 0;
};

/// A distributed protocol: per-node round handlers over shared-nothing
/// per-node state, exactly the CONGEST programming model.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;  ///< virtual: deleted through base

  /// Nodes that must act in round 0 (e.g. the BFS root). Whole-program
  /// state is set up here.
  virtual std::vector<NodeId> initial_nodes(const EmbeddedGraph& g) = 0;

  /// Invoked for every node that has mail or requested a wake-up. The
  /// inbox view aliases the network's delivery slab and dies with the
  /// call — copy out anything that must survive the turn.
  ///
  /// Locality rule: round(v, ...) may read shared immutable state (the
  /// graph, config) but must only *mutate* state keyed by v — the node's
  /// own slots of per-node arrays/maps — and learn about other nodes only
  /// through its inbox. The CONGEST model demands this (nodes share no
  /// memory), and it is what makes a protocol's round count meaningful.
  virtual void round(NodeId v, InboxView inbox, Ctx& ctx) = 0;
};

/// The simulator: executes NodeProgram rounds over an embedded graph with
/// the one-message-per-edge-per-round budget enforced.
class Network {
 public:
  /// A network over g; g must outlive the network.
  explicit Network(const EmbeddedGraph& g);

  /// Runs prog until quiescence; returns the number of rounds executed.
  int run(NodeProgram& prog, int max_rounds = 1 << 26);

  /// Messages accepted during the last run().
  long long messages_sent() const { return messages_sent_; }
  /// The graph this network simulates on.
  const EmbeddedGraph& graph() const { return *g_; }

  /// Instance-level trace sink; overrides the global one. nullptr detaches.
  void set_trace_sink(TraceSink* sink) { sink_ = sink; }

  /// Instance-level fault injector; overrides the calling thread's one.
  /// nullptr detaches. Resolved (instance, then thread) once at run()
  /// entry.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

 private:
  friend class Ctx;
  void do_send(NodeId from, NodeId to, const Message& msg, int round);
  InboxView take_inbox(NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    const InboxView mail(inbox_data_.data() + inbox_off_[i], inbox_len_[i]);
    inbox_len_[i] = 0;  // consumed
    return mail;
  }
  using Staged = std::vector<std::pair<NodeId, Incoming>>;
  void turns(NodeProgram& prog, int round, const std::vector<NodeId>& nodes);
  std::uint32_t scatter(const Staged& seq);
  long long deliver_serial();
  long long run_round_faulted(NodeProgram& prog, int round,
                              const std::vector<NodeId>& active);
  long long deliver_faulted(int round);

  const EmbeddedGraph* g_;
  TraceSink* sink_ = nullptr;
  TraceSink* active_sink_ = nullptr;  // resolved at run() entry
  FaultInjector* fault_ = nullptr;
  FaultInjector* active_fault_ = nullptr;  // resolved at run() entry
  long long messages_sent_ = 0;
  // Flat delivery slabs (double-buffered): node v's mail this round is
  // inbox_data_[inbox_off_[v] .. +inbox_len_[v]). inbox_next_ is the slab
  // under construction at the delivery stage; the two swap each round.
  std::vector<Incoming> inbox_data_;
  std::vector<Incoming> inbox_next_;
  std::vector<std::uint32_t> inbox_off_;
  std::vector<std::uint32_t> inbox_len_;
  std::vector<std::uint32_t> cursor_;     // per-node scatter write positions
  std::vector<NodeId> recipients_;        // first-arrival order, this round
  std::vector<char> woken_;
  std::vector<NodeId> active_next_;
  Staged staged_;  // this round's accepted sends, in send order
  // Per (from -> to) sent-this-round guard, keyed by dart id.
  std::vector<int> sent_round_;
  // Fault-path state (touched only while a FaultInjector is active).
  Staged deferred_;       // arriving this round
  Staged deferred_next_;  // stalled this round
  Staged fault_deliver_;  // post-fate sequence
  std::vector<NodeId> faulted_active_;  // this round's survivors + restarts
  std::vector<NodeId> crash_pending_;   // parked until their crash ends
  std::vector<char> crash_pending_flag_;
};

}  // namespace plansep::congest
