#include "ledger.hpp"

#include <chrono>

#include "obs/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Ledger::Ledger() : owner_(std::this_thread::get_id()) {}

int Ledger::open(const std::string& name) {
  if (std::this_thread::get_id() != owner_) {
    ++foreign_;
    return -1;
  }
  SpanRec s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request_;
  const int idx = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  stack_.push_back(idx);
  spans_.back().start = now_ns();  // last, so bookkeeping stays outside
  return idx;
}

void Ledger::close(int span) {
  if (span < 0 || std::this_thread::get_id() != owner_) return;
  if (spans_[static_cast<std::size_t>(span)].end >= 0) return;  // closed
  const std::int64_t t = now_ns();
  // Spans left open inside this one (a CONGEST run whose program threw
  // never reports on_run_end) end with it.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    spans_[static_cast<std::size_t>(top)].end = t;
    if (top == span) break;
  }
}

void Ledger::add_standalone(int parent, const std::string& name,
                            std::int64_t start, std::int64_t end) {
  SpanRec s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.request = parent >= 0 ? spans_[static_cast<std::size_t>(parent)].request
                          : request_;
  s.standalone = true;
  spans_.push_back(std::move(s));
}

std::vector<std::int64_t> Ledger::self_times() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    const std::int64_t d = s.end >= s.start ? s.end - s.start : 0;
    self[i] += d;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= d;
  }
  return self;
}

void Ledger::write_jsonl(std::ostream& out, const std::string& workload) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    plansep::obs::JsonWriter w;
    w.begin_object();
    w.key("workload").value(workload);
    w.key("span").value(static_cast<long long>(i));
    w.key("name").value(s.name);
    w.key("start_ns").value(static_cast<long long>(s.start));
    w.key("end_ns").value(static_cast<long long>(s.end));
    w.key("parent").value(s.parent);
    w.key("request").value(static_cast<long long>(s.request));
    w.key("standalone").value(s.standalone);
    w.end_object();
    out << w.str() << '\n';
  }
}

std::string task_of_artifact(const std::string& algorithm) {
  if (algorithm == "spantree@v1") return "spanning_tree";
  if (algorithm == "separator@v1") return "separator";
  if (algorithm == "dfs@v1") return "dfs";
  if (algorithm == "lt-level@v1") return "baseline";
  if (algorithm == "hier-index@v1") return "query_index";
  return algorithm;
}

TracingCache::Value TracingCache::get_or_compute(
    const plansep::serve::CacheKey& key, const Compute& compute) {
  ++lookups_;
  Value v;
  {
    Scope lookup(&ledger_, "serve.cache_lookup");
    v = inner_.get_or_compute(key, [&] {
      ++computes_;
      Scope task(&ledger_, "taskgraph.task." + task_of_artifact(key.algorithm));
      return compute();
    });
  }
  returned_[key.algorithm] = v;
  return v;
}

std::map<std::string, TracingCache::Value> TracingCache::take_returned() {
  std::map<std::string, Value> out;
  out.swap(returned_);
  return out;
}

void TimingSink::on_run_begin(const plansep::planar::EmbeddedGraph& g) {
  (void)g;
  ledger_.close(open_);  // a run that threw never reported its end
  open_ = ledger_.open("congest.run");
}

void TimingSink::on_send(int round, plansep::planar::NodeId from,
                         plansep::planar::NodeId to,
                         const plansep::congest::Message& msg) {
  (void)round, (void)from, (void)to, (void)msg;
}

void TimingSink::on_run_end(int rounds, long long messages) {
  ledger_.close(open_);
  open_ = -1;
  rounds_ += rounds;
  messages_ += messages;
}

}  // namespace perfbench
