#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fingerprint.hpp"
#include "io/corpus.hpp"

namespace perfbench {

namespace {

using plansep::core::mix_seed;
namespace planar = plansep::planar;

const char* const kFamilies[] = {"grid", "triangulation", "random_planar",
                                 "outerplanar"};

planar::Family family_of(const std::string& name) {
  const auto f = planar::family_from_name(name);
  if (!f) throw std::runtime_error("unknown family " + name);
  return *f;
}

// Uniform [0, 1) from a hash (the fault-plan idiom).
double unit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

// n jittered by ±2%, so two seeds rarely repeat an instance size.
int jitter(int n, std::uint64_t h) {
  return static_cast<int>(n * (0.98 + 0.04 * unit(h)));
}

std::uint64_t graph_seed(std::uint64_t h) { return 1 + h % 1000000000ULL; }

std::string job_line(const std::string& family, int n, std::uint64_t seed,
                     const std::string& algo) {
  return "--family=" + family + " --n=" + std::to_string(n) +
         " --seed=" + std::to_string(seed) + " --algo=" + algo;
}

// ----------------------------------------------------------- jobs_mixed --

struct Slot {
  char type;
  int k;
};

// Block layout: C = cold slot k, W = warm repeat of cold slot k, S =
// sibling, L = load, F = fault, M = malformed.
//
// The daemon answers a client in admission order, so a request waits for
// every slower request admitted before it (malformed lines are refused at
// once and hold no slot). A block starts on an empty pipeline (the loop
// drains between blocks), so the layout fixes who waits on whom: the
// cheap warm repeats open the block, then the loads and the fault job,
// then the cold specs in ascending cost, and the block closes with the
// sibling and the random_planar warm repeats, which regenerate their
// instance. Each latency class has an odd number of slots, so its median
// sits inside one slot's cluster.
const Slot kJobLayout[] = {{'W', 6}, {'W', 3}, {'W', 1}, {'W', 0}, {'W', 5},
                           {'M', 0}, {'L', 0}, {'L', 1}, {'F', 0}, {'M', 1},
                           {'C', 6}, {'C', 3}, {'C', 1}, {'C', 0}, {'C', 2},
                           {'C', 4}, {'C', 5}, {'S', 0}, {'W', 2}, {'W', 4}};
// The cold slots: every family and algorithm, n from 2k to 20k, with
// dfs/pipeline kept under a second per cold job. Every block has the same
// slots, so blocks cost alike and per-block throughput is comparable.
// A plain grid is a function of n alone and only a handful of grids fall
// within the size jitter, so fresh specs would keep hitting the cache;
// the grid slots use grid+diag, a grid with seeded diagonals.
struct ColdSlot {
  const char* family;
  const char* algo;
  int n;
};
const ColdSlot kColdSlots[] = {{"grid+diag", "separator", 20000},
                               {"triangulation", "baseline-separator", 10000},
                               {"random_planar", "dfs", 4000},
                               {"outerplanar", "separator", 5000},
                               {"random_planar", "baseline-separator", 20000},
                               {"grid+diag", "pipeline", 4000},
                               {"triangulation", "separator", 2000}};
// The sibling re-runs cold slot 2 (dfs) as a pipeline, which shares the
// spanning tree, the engine and the DFS artifact.
constexpr int kSiblingOf = 2;
const int kLoadSize = 4000;

void make_jobs(Stream& s, std::uint64_t seed, int blocks,
               const std::string& corpus_root) {
  s.kind = Kind::kJob;
  // Prepared --graph= inputs: one instance per family, stored under the
  // daemon's corpus root before the daemon starts.
  for (int f = 0; f < 4; ++f) {
    const std::uint64_t gs = graph_seed(mix_seed(seed, 0x6c6f6164, f));
    const planar::GeneratedGraph gg =
        planar::make_instance(family_of(kFamilies[f]), kLoadSize, gs);
    s.corpus_files.push_back(
        plansep::io::store_in_corpus(corpus_root, kFamilies[f], gg.graph, gs));
  }
  // The prime: block -1's cold specs, sent before the timed loop so
  // block 0's repeats have something to repeat.
  const auto cold_request = [&](int b, int k, std::uint64_t id) {
    const ColdSlot& c = kColdSlots[k];
    const std::uint64_t h = mix_seed(seed, static_cast<std::uint64_t>(b + 1),
                                     static_cast<std::uint64_t>('C'), k);
    Request r;
    r.id = id;
    r.block = b;
    r.klass = Klass::kCold;
    r.family = c.family;
    r.n = jitter(c.n, h);
    r.graph_seed = graph_seed(h >> 7);
    r.algo = c.algo;
    r.line = job_line(r.family, r.n, r.graph_seed, r.algo);
    return r;
  };
  std::vector<const Request*> cold_prev(7, nullptr);
  for (int k = 0; k < 7; ++k) {
    s.prime.push_back(cold_request(-1, k, static_cast<std::uint64_t>(k)));
  }
  for (int k = 0; k < 7; ++k) cold_prev[static_cast<std::size_t>(k)] = &s.prime[static_cast<std::size_t>(k)];
  s.requests.reserve(static_cast<std::size_t>(blocks) * std::size(kJobLayout));
  for (int b = 0; b < blocks; ++b) {
    std::vector<const Request*> cold_cur(7, nullptr);
    for (const Slot& slot : kJobLayout) {
      const auto id = static_cast<std::uint64_t>(s.prime.size() + s.requests.size());
      const std::uint64_t h =
          mix_seed(seed, static_cast<std::uint64_t>(b),
                   static_cast<std::uint64_t>(slot.type), slot.k);
      Request r;
      r.id = id;
      r.block = b;
      switch (slot.type) {
        case 'C':
          r = cold_request(b, slot.k, id);
          break;
        case 'W':
        case 'S': {
          const int k = slot.type == 'W' ? slot.k : kSiblingOf;
          const Request& c = *cold_prev[static_cast<std::size_t>(k)];
          r.klass = slot.type == 'W' ? Klass::kWarm : Klass::kSibling;
          r.family = c.family;
          r.n = c.n;
          r.graph_seed = c.graph_seed;
          r.algo = slot.type == 'W' ? c.algo : "pipeline";
          r.source = static_cast<long long>(c.id);
          r.line = job_line(r.family, r.n, r.graph_seed, r.algo);
          break;
        }
        case 'L': {
          const int f = (2 * b + slot.k) % 4;
          r.klass = Klass::kLoad;
          r.family = kFamilies[f];
          r.n = kLoadSize;
          r.graph_path = s.corpus_files[static_cast<std::size_t>(f)];
          r.algo = slot.k == 0 ? "separator" : "baseline-separator";
          r.line = "--graph=" + r.graph_path + " --algo=" + r.algo;
          break;
        }
        case 'F': {
          r.klass = Klass::kFault;
          r.family = "grid";
          r.n = jitter(1500, h);
          r.graph_seed = graph_seed(h >> 7);
          r.algo = "separator";
          r.line = job_line(r.family, r.n, r.graph_seed, r.algo) +
                   " --drop=0.02 --fault-seed=" + std::to_string(h % 100000);
          break;
        }
        default: {  // 'M': an unknown flag, refused at the session
          r.klass = Klass::kReject;
          r.family = "grid";
          r.n = 2000;
          r.line = job_line("grid", 2000, graph_seed(h), "separator") +
                   " --perfbench-bogus=" + std::to_string(b);
          break;
        }
      }
      s.requests.push_back(std::move(r));
      if (slot.type == 'C') {
        cold_cur[static_cast<std::size_t>(slot.k)] = &s.requests.back();
      }
    }
    cold_prev = cold_cur;
  }
}

// ---------------------------------------------------------- query_mixed --

struct QuerySpec {
  const char* family;
  int n;
  int leaf;
};
// Exactly the engine-cache capacity (4), so engine hits repeat exactly.
const QuerySpec kQueryInstances[] = {{"triangulation", 20000, 64},
                                     {"grid", 10000, 64},
                                     {"random_planar", 20000, 128},
                                     {"triangulation", 2000, 64}};
// Block layout: R<i> read-only on instance i, W<i> dead edges, M
// malformed. Responses reach the client in admission order, so a request
// waits for every slower one admitted before it; the slow slots are
// grouped at the end of the block, which keeps the read median inside
// the cluster of cheap reads: the writes (a private engine rebuilding
// pieces), then the random_planar reads, which regenerate the instance
// and would hold the writes up.
const Slot kQueryLayout[] = {{'R', 0}, {'R', 1}, {'R', 3}, {'R', 0}, {'R', 1},
                             {'R', 0}, {'M', 0}, {'R', 3}, {'R', 0}, {'R', 1},
                             {'R', 0}, {'R', 3}, {'R', 1}, {'M', 1}, {'R', 0},
                             {'W', 1}, {'W', 0}, {'W', 3}, {'R', 2}, {'R', 2}};
constexpr int kPairsPerRequest = 2000;


void make_queries(Stream& s, std::uint64_t seed, int blocks) {
  s.kind = Kind::kQuery;
  std::uint64_t seeds[4];
  for (int i = 0; i < 4; ++i) {
    const QuerySpec& q = kQueryInstances[i];
    const std::uint64_t gs = graph_seed(mix_seed(seed, 0x7175657279, i));
    seeds[i] = gs;
    s.instances.push_back(planar::make_instance(family_of(q.family), q.n, gs));
  }
  const auto base_request = [&](int i, std::uint64_t id, int b) {
    const QuerySpec& q = kQueryInstances[i];
    Request r;
    r.id = id;
    r.block = b;
    r.instance = i;
    r.family = q.family;
    r.n = q.n;
    r.leaf_size = q.leaf;
    r.line = "--family=" + std::string(q.family) + " --n=" +
             std::to_string(q.n) + " --seed=" + std::to_string(seeds[i]);
    r.graph_seed = seeds[i];
    r.instance_nodes = s.instances[static_cast<std::size_t>(i)].graph.num_nodes();
    return r;
  };
  for (int i = 0; i < 4; ++i) {
    Request r = base_request(i, static_cast<std::uint64_t>(i), -1);
    r.klass = Klass::kCold;
    r.pair_seed = mix_seed(seed, 0x7072696d65, i);
    s.prime.push_back(std::move(r));
  }
  for (int b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j < std::size(kQueryLayout); ++j) {
      const Slot& slot = kQueryLayout[j];
      const std::uint64_t h = mix_seed(seed, static_cast<std::uint64_t>(b), j);
      const auto id = static_cast<std::uint64_t>(s.prime.size() +
                                                 s.requests.size());
      Request r = base_request(slot.k, id, b);
      const planar::EmbeddedGraph& g =
          s.instances[static_cast<std::size_t>(slot.k)].graph;
      r.pair_seed = h;
      if (slot.type == 'R') {
        r.klass = Klass::kWarm;
      } else if (slot.type == 'W') {
        r.klass = Klass::kWrite;
        const int kills = 1 + static_cast<int>((b + j) % 4);
        plansep::Rng rng(h ^ 0x6b696c6cULL);
        for (int k = 0; k < kills; ++k) {
          const auto e = static_cast<planar::EdgeId>(
              rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
          r.dead_edges.emplace_back(g.edge_u(e), g.edge_v(e));
        }
      } else {
        // An unknown flag in the instance line: refused at the session.
        r.klass = Klass::kReject;
        r.line += " --leaf=" + std::to_string(r.leaf_size);
      }
      s.requests.push_back(std::move(r));
    }
  }
}

// --------------------------------------------------------- ingest_mixed --

// Block layout: A accept (fresh), P repeat of an earlier accept, N
// non-planar, X cheap reject. Head-of-line waits as in jobs: the cheap
// rejects open the block, the repeats follow while nothing slow is ahead
// of them, then everything else in ascending estimated admission cost.
// Latency classes have odd slot counts.
const Slot kIngestLayout[] = {{'X', 0}, {'X', 1}, {'X', 2}, {'P', 4}, {'P', 1},
                              {'P', 3}, {'P', 2}, {'P', 0}, {'A', 5}, {'N', 3},
                              {'A', 2}, {'N', 2}, {'A', 4}, {'N', 0}, {'A', 3},
                              {'N', 1}, {'A', 0}, {'N', 4}, {'A', 1}, {'A', 6}};
// Repeat slot k re-admits accept slot kRepeatOf[k] of the previous block
// (of the prime, for block 0). The repeated accepts cost alike, so the
// repeat median sits in a tight cluster.
const int kRepeatOf[] = {1, 2, 3, 4, 5};
// Source graphs per slot. DMP planarity is super-linear, so sizes stay
// at 300-1500 nodes, triangulations (the densest) at or below 700; that
// keeps a block near a second, so a run holds enough blocks to be steady.
struct IngestSlot {
  const char* family;
  int n;
  bool triangulate;  ///< apex triangulation needs a 2-connected input
};
const IngestSlot kAccepts[] = {{"grid", 1000, true},
                               {"triangulation", 500, false},
                               {"random_planar", 1000, false},
                               {"outerplanar", 1500, true},
                               {"grid", 700, false},
                               {"triangulation", 300, true},
                               {"triangulation", 700, false}};
const IngestSlot kNonPlanar[] = {{"grid", 700, false},
                                 {"triangulation", 400, false},
                                 {"random_planar", 1000, false},
                                 {"outerplanar", 1000, false},
                                 {"grid", 1000, false}};
const IngestSlot kCheap[] = {{"grid", 700, false},
                             {"triangulation", 500, false},
                             {"outerplanar", 700, false}};

// External node ids: stretched over a sparse 64-bit range.
struct IdMap {
  long long stretch;
  long long offset;
  std::string operator()(planar::NodeId v) const {
    return std::to_string(stretch * v + offset);
  }
};

IdMap id_map(std::uint64_t h) {
  return {1000000007LL + 2 * static_cast<long long>(h % 1000),
          static_cast<long long>((h >> 10) % 1000000)};
}

// Edge-list text the way bench_ingest renders it: mapped ids, a comment
// header, CRLF on every other line.
std::string render(const planar::EmbeddedGraph& g, const std::string& family,
                   const IdMap& ids) {
  std::string out = "# plansep perfbench " + family + " n=" +
                    std::to_string(g.num_nodes()) + "\n";
  out.reserve(static_cast<std::size_t>(g.num_edges()) * 30);
  for (planar::EdgeId e = 0; e < g.num_edges(); ++e) {
    out += ids(g.edge_u(e)) + " " + ids(g.edge_v(e)) +
           (e % 2 == 0 ? "\r\n" : "\n");
  }
  return out;
}

void make_ingest(Stream& s, std::uint64_t seed, int blocks) {
  s.kind = Kind::kIngest;
  const auto accept_request = [&](int b, int k, std::uint64_t id) {
    const IngestSlot& src = kAccepts[k];
    const std::uint64_t h = mix_seed(seed, static_cast<std::uint64_t>(b + 1),
                                     static_cast<std::uint64_t>('A'), k);
    Request r;
    r.id = id;
    r.block = b;
    r.klass = Klass::kCold;
    r.family = src.family;
    r.n = jitter(src.n, h);
    r.graph_seed = graph_seed(h >> 7);
    r.text_seed = h;
    r.triangulate = src.triangulate;
    return r;
  };
  // The prime: block -1's accepts that block 0 repeats.
  std::vector<const Request*> accept_prev(std::size(kAccepts), nullptr);
  for (const int k : kRepeatOf) {
    s.prime.push_back(accept_request(-1, k, s.prime.size()));
  }
  for (std::size_t i = 0; i < s.prime.size(); ++i) {
    accept_prev[static_cast<std::size_t>(kRepeatOf[i])] = &s.prime[i];
  }
  s.requests.reserve(static_cast<std::size_t>(blocks) * std::size(kIngestLayout));
  for (int b = 0; b < blocks; ++b) {
    std::vector<const Request*> accept_cur(std::size(kAccepts), nullptr);
    for (std::size_t j = 0; j < std::size(kIngestLayout); ++j) {
      const Slot& slot = kIngestLayout[j];
      const std::uint64_t h = mix_seed(seed, static_cast<std::uint64_t>(b),
                                       j, 0x696e67657374);
      const auto id = static_cast<std::uint64_t>(s.prime.size() + s.requests.size());
      if (slot.type == 'A') {
        s.requests.push_back(accept_request(b, slot.k, id));
        accept_cur[static_cast<std::size_t>(slot.k)] = &s.requests.back();
        continue;
      }
      Request r;
      r.id = id;
      r.block = b;
      if (slot.type == 'P') {
        const Request& a =
            *accept_prev[static_cast<std::size_t>(kRepeatOf[slot.k])];
        r.klass = Klass::kWarm;
        r.family = a.family;
        r.n = a.n;
        r.graph_seed = a.graph_seed;
        r.text_seed = a.text_seed;
        r.triangulate = a.triangulate;
        r.source = static_cast<long long>(a.id);
        s.requests.push_back(std::move(r));
        continue;
      }
      const IngestSlot& src =
          slot.type == 'N' ? kNonPlanar[slot.k] : kCheap[slot.k];
      r.family = src.family;
      r.n = jitter(src.n, h);
      r.graph_seed = graph_seed(h >> 7);
      r.text_seed = h;
      if (slot.type == 'N') {
        r.klass = Klass::kReject;
        r.expect_code = 9;  // kNonPlanar
        r.edit = slot.k % 2 == 0 ? '5' : '3';
      } else {
        r.klass = Klass::kCheapReject;
        if (slot.k == 0) {
          r.expect_code = 5;  // kDuplicateEdge
          r.edit = 'd';
        } else if (slot.k == 1 && b % 2 == 0) {
          r.expect_code = 4;  // kSelfLoop
          r.edit = 's';
        } else if (slot.k == 1) {
          r.expect_code = 6;  // kNodeLimit
          r.max_nodes = r.n / 2;
        } else {
          r.expect_code = 3;  // kLineLimit (server cap: 64 KiB)
          r.edit = 'l';
        }
      }
      s.requests.push_back(std::move(r));
    }
    accept_prev = accept_cur;
  }
}

}  // namespace

std::vector<std::pair<int, int>> query_pairs(const Request& r) {
  plansep::Rng rng(r.pair_seed);
  const auto n = static_cast<std::uint64_t>(r.instance_nodes);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(kPairsPerRequest);
  for (int i = 0; i < kPairsPerRequest; ++i) {
    pairs.emplace_back(static_cast<int>(rng.next_below(n)),
                       static_cast<int>(rng.next_below(n)));
  }
  return pairs;
}

std::string ingest_text(const Request& r) {
  const planar::GeneratedGraph gg =
      planar::make_instance(family_of(r.family), r.n, r.graph_seed);
  const planar::EmbeddedGraph& g = gg.graph;
  const IdMap ids = id_map(r.text_seed);
  std::string text = render(g, r.family, ids);
  // Fresh ids far above the map's range, for the spliced subgraphs.
  const long long base = 4000000000000000000LL +
                         static_cast<long long>(r.text_seed % 1000000) * 16;
  switch (r.edit) {
    case '5':
      for (int a = 0; a < 5; ++a) {
        for (int c = a + 1; c < 5; ++c) {
          text += std::to_string(base + a) + " " + std::to_string(base + c) + "\n";
        }
      }
      break;
    case '3':
      for (int a = 0; a < 3; ++a) {
        for (int c = 3; c < 6; ++c) {
          text += std::to_string(base + a) + " " + std::to_string(base + c) + "\n";
        }
      }
      break;
    case 'd':  // the first edge again, reversed
      text += ids(g.edge_v(0)) + " " + ids(g.edge_u(0)) + "\n";
      break;
    case 's':
      text += ids(g.edge_u(0)) + " " + ids(g.edge_u(0)) + "\n";
      break;
    case 'l':
      text += "# " + std::string(70000, 'x') + "\n";
      break;
    default:
      break;
  }
  return text;
}

const char* klass_name(Klass k) {
  switch (k) {
    case Klass::kCold:
      return "cold";
    case Klass::kWarm:
      return "warm";
    case Klass::kSibling:
      return "sibling";
    case Klass::kLoad:
      return "load";
    case Klass::kFault:
      return "fault";
    case Klass::kWrite:
      return "write";
    case Klass::kReject:
      return "reject";
    case Klass::kCheapReject:
      return "cheap_reject";
  }
  return "?";
}

bool known_workload(const std::string& workload) {
  return workload == "jobs_mixed" || workload == "query_mixed" ||
         workload == "ingest_mixed";
}

Stream make_stream(const std::string& workload, std::uint64_t seed,
                   int blocks, const std::string& corpus_root) {
  Stream s;
  if (workload == "jobs_mixed") {
    make_jobs(s, seed, blocks, corpus_root);
  } else if (workload == "query_mixed") {
    make_queries(s, seed, blocks);
  } else if (workload == "ingest_mixed") {
    make_ingest(s, seed, blocks);
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }
  return s;
}

}  // namespace perfbench
