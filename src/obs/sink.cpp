#include "obs/sink.hpp"

#include <cstdlib>
#include <cstring>

#include "obs/trace_export.hpp"
#include "util/check.hpp"

namespace plansep::obs {

void MetricsSink::on_run_begin(const planar::EmbeddedGraph& g) {
  finalize();  // a previous run may have been aborted by an exception
  g_ = &g;
  run_open_ = true;
  edge_load_.assign(static_cast<std::size_t>(g.num_edges()), 0);
  touched_.clear();
  reg_->add("congest/runs");
  if (next_ != nullptr) next_->on_run_begin(g);
}

void MetricsSink::on_send(int round, congest::NodeId from, congest::NodeId to,
                          const congest::Message& msg) {
  reg_->count_message();
  if (run_open_) {
    // find_dart is O(deg) — a documented cost of *enabled* congestion
    // accounting; the disabled path never reaches this sink.
    const planar::DartId d = g_->find_dart(from, to);
    PLANSEP_CHECK(d != planar::kNoDart);
    const auto e =
        static_cast<std::size_t>(planar::EmbeddedGraph::edge_of(d));
    if (edge_load_[e] == 0) touched_.push_back(static_cast<planar::EdgeId>(e));
    ++edge_load_[e];
  }
  if (next_ != nullptr) next_->on_send(round, from, to, msg);
}

void MetricsSink::on_round_end(int round, int activated, long long delivered) {
  reg_->advance_network_round();
  reg_->histogram("congest/active_per_round").add(activated);
  reg_->histogram("congest/delivered_per_round").add(delivered);
  reg_->record_round_sample(activated, delivered);
  if (next_ != nullptr) next_->on_round_end(round, activated, delivered);
}

void MetricsSink::on_run_end(int rounds, long long messages) {
  reg_->histogram("congest/run_rounds").add(rounds);
  reg_->histogram("congest/run_messages").add(messages);
  finalize();
  if (next_ != nullptr) next_->on_run_end(rounds, messages);
}

void MetricsSink::finalize() {
  if (!run_open_) return;
  run_open_ = false;
  HistogramData& h = reg_->histogram("congest/edge_load");
  long long max_load = 0;
  for (const planar::EdgeId e : touched_) {
    const long long load = edge_load_[static_cast<std::size_t>(e)];
    h.add(load);
    if (load > max_load) max_load = load;
  }
  if (!touched_.empty()) {
    reg_->histogram("congest/run_edge_load_max").add(max_load);
  }
  touched_.clear();
}

// -------------------------------------------------------- env bootstrap --

namespace {

// Process-lifetime pair, deliberately leaked: the atexit exporter below
// reads them after main() returns.
MetricsRegistry* g_env_registry = nullptr;
MetricsSink* g_env_sink = nullptr;

void export_env_metrics_at_exit() {
  g_env_sink->finalize();
  if (const char* p = std::getenv("PLANSEP_METRICS_OUT"); p != nullptr && *p) {
    write_metrics_json(*g_env_registry, p);
  }
  if (const char* p = std::getenv("PLANSEP_TRACE_OUT"); p != nullptr && *p) {
    write_chrome_trace(*g_env_registry, p);
  }
}

bool install_env_metrics() {
  const char* v = std::getenv("PLANSEP_METRICS");
  if (v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0) return false;
  g_env_registry = new MetricsRegistry();
  g_env_sink = new MetricsSink(*g_env_registry);
  set_global_registry(g_env_registry);
  g_env_sink->set_next(congest::set_global_trace_sink(g_env_sink));
  std::atexit(export_env_metrics_at_exit);
  return true;
}

}  // namespace

void ensure_env_metrics() {
  static const bool installed = install_env_metrics();
  (void)installed;
}

namespace {

// Settled while the library loads, on the main thread, so the env pair
// binds to the main thread whichever thread reaches obs or the CONGEST
// engine first.
[[maybe_unused]] const bool g_settled_at_load = (ensure_env_metrics(), true);

}  // namespace

}  // namespace plansep::obs
