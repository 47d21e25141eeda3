// E17 (serving) — the ingest front door: untrusted edge-list text
// through the full admission pipeline (capped parse, canonicalization,
// DMP planarity, fingerprint). Each sweep point renders a generated
// instance as external edge-list text (sparse 64-bit-ish ids, comments,
// CRLF — the hostile-ish shape real inputs have) and reports the accept
// wall clock, end-to-end throughput in MB/s and edges/s, and the cost
// of *rejecting* the same text with a K5 spliced in (the adversarial
// path must cost about the same as the happy path — no amplification
// for attackers). Counters accepted/rejected
// are printed so CI can sanity-check both verdicts ran. Flags are
// bench_util's (--quick, --reps=N, --json=PATH).

#include <cstdio>
#include <sstream>
#include <thread>

#include "bench_util.hpp"
#include "ingest/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace plansep;
  bench::ObsSession obs(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  const int reps = bench::reps_arg(argc, argv, 3);
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  struct Point {
    planar::Family family;
    int n;
  };
  const std::vector<Point> sweep =
      quick ? std::vector<Point>{{planar::Family::kGrid, 400},
                                 {planar::Family::kTriangulation, 1000}}
            : std::vector<Point>{
                  // The DMP admission step is super-linear, so the sweep
                  // stays modest: it gates parse+admit cost drift, not
                  // asymptotics.
                  {planar::Family::kGrid, 2500},
                  {planar::Family::kGrid, 6400},
                  {planar::Family::kTriangulation, 2000},
                  {planar::Family::kTriangulation, 5000},
                  {planar::Family::kRandomPlanar, 2000},
              };

  std::printf("E17: ingest admission throughput (%s)\n\n",
              quick ? "quick" : "full");
  Table table({"family", "n", "edges", "bytes", "accept ms", "MB/s",
               "Medges/s", "reject ms"});
  bench::BenchJson json("ingest");

  int accepted = 0, rejected = 0;
  for (const Point& pt : sweep) {
    const auto gg = planar::make_instance(pt.family, pt.n, /*seed=*/1);

    // External-looking text: ids stretched over a sparse 64-bit range,
    // a comment header, CRLF line endings on half the lines.
    std::ostringstream os;
    os << "# bench_ingest " << planar::family_name(pt.family) << " n="
       << pt.n << "\n";
    for (planar::EdgeId e = 0; e < gg.graph.num_edges(); ++e) {
      const long long u =
          1000000007LL * static_cast<long long>(gg.graph.edge_u(e)) + 17;
      const long long v =
          1000000007LL * static_cast<long long>(gg.graph.edge_v(e)) + 17;
      os << u << ' ' << v << (e % 2 == 0 ? "\r\n" : "\n");
    }
    const std::string text = os.str();

    // K5 on five fresh ids: the same text, now one block past planar.
    std::string hostile = text;
    for (int a = 0; a < 5; ++a) {
      for (int b = a + 1; b < 5; ++b) {
        hostile += std::to_string(4000000000000000000LL + a) + " " +
                   std::to_string(4000000000000000000LL + b) + "\n";
      }
    }

    ingest::IngestOptions opts;  // production caps, no corpus store
    std::size_t edges = 0;
    const double accept_ms = bench::min_wall_ms(reps, [&] {
      const ingest::IngestResult res = ingest::ingest_string(text, opts);
      edges = static_cast<std::size_t>(res.graph.num_edges());
      ++accepted;
    });
    const double reject_ms = bench::min_wall_ms(reps, [&] {
      try {
        (void)ingest::ingest_string(hostile, opts);
        std::fprintf(stderr, "bench_ingest: hostile input was admitted\n");
        std::exit(2);
      } catch (const ingest::IngestError&) {
        ++rejected;
      }
    });

    const double mb = static_cast<double>(text.size()) / (1024.0 * 1024.0);
    const double mb_per_s = mb / (accept_ms / 1000.0);
    const double medges_per_s =
        static_cast<double>(edges) / 1e6 / (accept_ms / 1000.0);

    table.add(planar::family_name(pt.family), pt.n,
              static_cast<long long>(edges),
              static_cast<long long>(text.size()), accept_ms, mb_per_s,
              medges_per_s, reject_ms);
    json.row()
        .set("kind", "ingest")
        .set("workload", "admit")
        .set("family", planar::family_name(pt.family))
        .set("n", pt.n)
        .set("threads", 1)
        .set("host_cores", host_cores)
        .set("edges", static_cast<long long>(edges))
        .set("input_bytes", static_cast<long long>(text.size()))
        .set("wall_ms", accept_ms)
        .set("reject_wall_ms", reject_ms)
        .set("mb_per_s", mb_per_s)
        .set("medges_per_s", medges_per_s);
  }

  table.print();
  json.write(bench::json_path_arg(argc, argv, "ingest"));
  std::printf(
      "\naccepted=%d rejected=%d\n"
      "Expectation: admission cost is dominated by the DMP planarity step\n"
      "(super-linear, hence the modest sweep), and rejecting a near-planar\n"
      "input costs about the same as admitting its planar bulk — the\n"
      "adversarial path buys no amplification.\n",
      accepted, rejected);
  return (accepted > 0 && rejected > 0) ? 0 : 1;
}
