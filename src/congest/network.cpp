#include "congest/network.hpp"

#include <algorithm>
#include <utility>

#include "obs/sink.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace plansep::congest {

namespace {

thread_local TraceSink* t_trace_sink = nullptr;
thread_local FaultInjector* t_fault_injector = nullptr;

}  // namespace

TraceSink* set_global_trace_sink(TraceSink* sink) {
  return std::exchange(t_trace_sink, sink);
}

TraceSink* global_trace_sink() { return t_trace_sink; }

FaultInjector* set_thread_fault_injector(FaultInjector* injector) {
  return std::exchange(t_fault_injector, injector);
}

FaultInjector* thread_fault_injector() { return t_fault_injector; }

void Ctx::send(NodeId neighbor, const Message& msg) {
  net_->do_send(self_, neighbor, msg, round_);
}

void Ctx::wake_next_round() {
  if (!net_->woken_[static_cast<std::size_t>(self_)]) {
    net_->woken_[static_cast<std::size_t>(self_)] = 1;
    net_->active_next_.push_back(self_);
  }
}

Network::Network(const EmbeddedGraph& g) : g_(&g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  inbox_off_.assign(n, 0);
  inbox_len_.assign(n, 0);
  cursor_.assign(n, 0);
  woken_.assign(n, 0);
  sent_round_.assign(static_cast<std::size_t>(g.num_darts()), -1);
  crash_pending_flag_.assign(n, 0);
}

void Network::do_send(NodeId from, NodeId to, const Message& msg, int round) {
  const DartId d = g_->find_dart(from, to);
  PLANSEP_CHECK_MSG(d != planar::kNoDart, "message sent to a non-neighbor");
  PLANSEP_CHECK_MSG(sent_round_[static_cast<std::size_t>(d)] != round,
                    "CONGEST bandwidth exceeded: two messages on one edge");
  sent_round_[static_cast<std::size_t>(d)] = round;
  ++messages_sent_;
  if (active_sink_) active_sink_->on_send(round, from, to, msg);
  // Staged for delivery after every node has taken its turn this round —
  // synchronous semantics: messages sent in round r are readable in r+1.
  staged_.push_back({to, Incoming{from, msg}});
}

// Lays a delivery sequence out in the next round's slab: count per
// recipient (the first message a node receives registers it as a
// recipient and activates it unless a wake-up already did), prefix-sum
// the counts into slab offsets, then scatter. Per-node inbox order is
// exactly the sequence order. Returns the number of messages laid out.
std::uint32_t Network::scatter(const Staged& seq) {
  recipients_.clear();
  for (const auto& [to, inc] : seq) {
    (void)inc;
    const auto i = static_cast<std::size_t>(to);
    if (inbox_len_[i]++ == 0) {
      recipients_.push_back(to);
      if (!woken_[i]) {
        woken_[i] = 1;
        active_next_.push_back(to);
      }
    }
  }
  std::uint32_t total = 0;
  for (const NodeId to : recipients_) {
    const auto i = static_cast<std::size_t>(to);
    inbox_off_[i] = total;
    cursor_[i] = total;
    total += inbox_len_[i];
  }
  if (inbox_next_.size() < total) inbox_next_.resize(total);
  for (const auto& [to, inc] : seq) {
    inbox_next_[cursor_[static_cast<std::size_t>(to)]++] = inc;
  }
  return total;
}

// Runs `nodes`' turns in order, staging their accepted sends.
void Network::turns(NodeProgram& prog, int round,
                    const std::vector<NodeId>& nodes) {
  staged_.clear();
  Ctx ctx;
  ctx.net_ = this;
  ctx.round_ = round;
  for (const NodeId v : nodes) {
    ctx.self_ = v;
    prog.round(v, take_inbox(v), ctx);
  }
}

long long Network::deliver_serial() {
  const std::uint32_t total = scatter(staged_);
  inbox_data_.swap(inbox_next_);
  return static_cast<long long>(total);
}

// One round under an active FaultInjector. Crash decisions are taken
// before the turns; delivery fates and reorders are applied after all
// turns, in send order.
long long Network::run_round_faulted(NodeProgram& prog, int round,
                                     const std::vector<NodeId>& active) {
  FaultInjector& fi = *active_fault_;
  // Crash filter: crashed nodes lose this turn and any pending mail, and
  // are parked; parked nodes whose crash interval ended get one restart
  // turn (empty inbox) this round.
  faulted_active_.clear();
  for (const NodeId v : active) {
    if (fi.crashed(round, v)) {
      inbox_len_[static_cast<std::size_t>(v)] = 0;
      if (!crash_pending_flag_[static_cast<std::size_t>(v)]) {
        crash_pending_flag_[static_cast<std::size_t>(v)] = 1;
        crash_pending_.push_back(v);
      }
    } else {
      // A parked node that re-activated on its own (fresh mail) simply
      // rejoins; no separate restart turn is owed.
      crash_pending_flag_[static_cast<std::size_t>(v)] = 0;
      faulted_active_.push_back(v);
    }
  }
  if (!crash_pending_.empty()) {
    std::size_t keep = 0;
    for (const NodeId v : crash_pending_) {
      if (!crash_pending_flag_[static_cast<std::size_t>(v)]) continue;
      if (fi.crashed(round, v)) {
        crash_pending_[keep++] = v;
        continue;
      }
      crash_pending_flag_[static_cast<std::size_t>(v)] = 0;
      faulted_active_.push_back(v);  // restart turn
    }
    crash_pending_.resize(keep);
  }

  turns(prog, round, faulted_active_);
  return deliver_faulted(round);
}

// Delivery stage of a faulted round: flush last round's stalled messages,
// apply per-message fates to this round's staged sends to build the
// post-fate delivery sequence, slab-scatter it, then permute the inbox
// slices the injector wants reordered (before the slab is swapped in).
long long Network::deliver_faulted(int round) {
  FaultInjector& fi = *active_fault_;
  fault_deliver_.clear();
  // Messages stalled in the previous round arrive now, ahead of this
  // round's traffic, in their original staging order.
  fault_deliver_.insert(fault_deliver_.end(), deferred_.begin(),
                        deferred_.end());
  deferred_.clear();
  for (const auto& [to, inc] : staged_) {
    switch (fi.fate(round, inc.from, to)) {
      case FaultInjector::Fate::kDrop:
        break;
      case FaultInjector::Fate::kStall:
        deferred_next_.push_back({to, inc});
        break;
      case FaultInjector::Fate::kDuplicate:
        fault_deliver_.push_back({to, inc});
        fault_deliver_.push_back({to, inc});
        break;
      case FaultInjector::Fate::kDeliver:
        fault_deliver_.push_back({to, inc});
        break;
    }
  }
  deferred_.swap(deferred_next_);
  const std::uint32_t total = scatter(fault_deliver_);
  // Adversarial intra-round delivery order: deterministic permutation of
  // each recipient's slab slice (the slice holds exactly this round's
  // deliveries — turns consume mail by slab swap, so nothing older can be
  // shuffled in). The injector answers as a pure function, so querying in
  // first-arrival rather than sorted order changes nothing.
  for (const NodeId to : recipients_) {
    if (const std::uint64_t s = fi.reorder_seed(round, to)) {
      Rng rng(s);
      const auto i = static_cast<std::size_t>(to);
      rng.shuffle(inbox_next_.data() + inbox_off_[i], inbox_len_[i]);
    }
  }
  inbox_data_.swap(inbox_next_);
  return static_cast<long long>(total);
}

int Network::run(NodeProgram& prog, int max_rounds) {
  std::fill(inbox_len_.begin(), inbox_len_.end(), 0);
  std::fill(woken_.begin(), woken_.end(), 0);
  std::fill(sent_round_.begin(), sent_round_.end(), -1);
  active_next_.clear();
  staged_.clear();
  recipients_.clear();
  messages_sent_ = 0;
  // The PLANSEP_METRICS env bootstrap (obs/) settles while the library
  // loads; this call links it into every program that runs a network.
  // One static-guard check.
  obs::ensure_env_metrics();
  active_sink_ = global_trace_sink();
  if (active_sink_) active_sink_->on_run_begin(*g_);
  active_fault_ = thread_fault_injector();
  if (active_fault_) {
    deferred_.clear();
    deferred_next_.clear();
    for (const NodeId v : crash_pending_) {
      crash_pending_flag_[static_cast<std::size_t>(v)] = 0;
    }
    crash_pending_.clear();
    active_fault_->on_run_begin(*g_);
  }

  std::vector<NodeId> active = prog.initial_nodes(*g_);
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());

  int round = 0;
  // Under faults the run must also outlast in-flight stalled messages and
  // parked crashed nodes, which keep the network non-quiescent even with
  // no node active this round.
  while ((!active.empty() ||
          (active_fault_ && (!deferred_.empty() || !crash_pending_.empty()))) &&
         round < max_rounds) {
    active_next_.clear();
    long long delivered = 0;
    if (active_fault_) {
      delivered = run_round_faulted(prog, round, active);
    } else {
      turns(prog, round, active);
      // Deliver staged messages; recipients become active next round.
      delivered = deliver_serial();
    }
    active.swap(active_next_);
    for (NodeId v : active) woken_[static_cast<std::size_t>(v)] = 0;
    if (active_sink_) {
      active_sink_->on_round_end(round, static_cast<int>(active.size()),
                                 delivered);
    }
    ++round;
  }
  if (active_sink_) active_sink_->on_run_end(round, messages_sent_);
  active_sink_ = nullptr;
  if (active_fault_) active_fault_->on_run_end();
  active_fault_ = nullptr;
  return round;
}

}  // namespace plansep::congest
