// The acceptance round trip, end to end through the real binaries: an
// external edge list admitted by plansep_ingest lands in a corpus as a
// fingerprinted .psg that plansep_batch then serves via --graph= with
// exit code 0. Also pins the ingest CLI's exit-code contract (and
// plansep_cli's, which reads through the same pipeline):
//   0 — accepted (one JSON line on stdout);
//   1 — rejected (typed reason, plus a witness for non-planar inputs);
//   2 — usage or I/O error.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

RunResult run(const std::string& cmd, const ScratchDir& dir) {
  const std::string out_path = dir.path() + "/out.txt";
  const std::string err_path = dir.path() + "/err.txt";
  const int status =
      std::system((cmd + " >" + out_path + " 2>" + err_path).c_str());
  RunResult r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.out = slurp(out_path);
  r.err = slurp(err_path);
  return r;
}

std::string write_file(const ScratchDir& dir, const char* name,
                       const std::string& contents) {
  const std::string path = dir.path() + "/" + name;
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(IngestCliTest, AcceptedEdgeListIsServedByBatch) {
  ScratchDir dir("roundtrip");
  const std::string edges = write_file(
      dir, "roads.txt",
      "# tiny road network\n"
      "10 20\n20 30\n30 40\n40 10\n10 30\n40 50\n50 60\n60 10\n");
  const std::string corpus = dir.path() + "/corpus";

  const RunResult in = run(std::string(PLANSEP_INGEST_BIN) + " " + edges +
                               " --corpus=" + corpus + " --family=roads",
                           dir);
  ASSERT_EQ(in.exit_code, 0) << in.err;
  EXPECT_NE(in.out.find("\"status\": \"ok\""), std::string::npos) << in.out;
  EXPECT_NE(in.out.find("\"family\": \"roads\""), std::string::npos) << in.out;

  // Exactly one artifact landed, under corpus/roads/<fingerprint>.psg.
  std::string artifact;
  for (const auto& e : fs::recursive_directory_iterator(corpus)) {
    if (e.is_regular_file()) {
      EXPECT_TRUE(artifact.empty()) << "second artifact: " << e.path();
      artifact = e.path().string();
    }
  }
  ASSERT_FALSE(artifact.empty());
  EXPECT_NE(artifact.find("/roads/"), std::string::npos) << artifact;
  EXPECT_NE(in.out.find(artifact), std::string::npos)
      << "stdout JSON should name the corpus path: " << in.out;

  // plansep_batch serves the ingested artifact unchanged.
  const std::string jobs =
      write_file(dir, "jobs.txt", "--graph=" + artifact + " --algo=dfs\n");
  const RunResult batch = run(std::string(PLANSEP_BATCH_BIN) +
                                  " --jobs=" + jobs + " --out=/dev/null",
                              dir);
  EXPECT_EQ(batch.exit_code, 0) << batch.err;

  // Re-ingesting the same list is idempotent: same artifact, no second file.
  const RunResult again = run(std::string(PLANSEP_INGEST_BIN) + " " + edges +
                                  " --corpus=" + corpus + " --family=roads",
                              dir);
  EXPECT_EQ(again.exit_code, 0) << again.err;
  EXPECT_EQ(again.out, in.out);
}

TEST(IngestCliTest, NonPlanarRejectionPrintsWitness) {
  ScratchDir dir("k5");
  std::string k5;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      k5 += std::to_string(a) + " " + std::to_string(b) + "\n";
    }
  }
  const std::string path = write_file(dir, "k5.txt", k5);
  const RunResult r =
      run(std::string(PLANSEP_INGEST_BIN) + " " + path, dir);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("ingest rejected [non-planar]"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("witness (10 edges):"), std::string::npos) << r.err;
}

TEST(IngestCliTest, MalformedInputAndUsageErrors) {
  ScratchDir dir("bad");
  const std::string path = write_file(dir, "bad.txt", "1 2\nbroken line\n");
  const RunResult parse =
      run(std::string(PLANSEP_INGEST_BIN) + " " + path, dir);
  EXPECT_EQ(parse.exit_code, 1);
  EXPECT_NE(parse.err.find("ingest rejected [parse] line 2"),
            std::string::npos)
      << parse.err;

  const RunResult flag =
      run(std::string(PLANSEP_INGEST_BIN) + " --no-such-flag", dir);
  EXPECT_EQ(flag.exit_code, 2);

  const RunResult missing =
      run(std::string(PLANSEP_INGEST_BIN) + " " + dir.path() + "/absent.txt",
          dir);
  EXPECT_EQ(missing.exit_code, 2);
}

// plansep_cli reads stdin through the same pipeline: a rejected input is
// exit 2 with the typed reason (not an uncaught exception), a non-planar
// one exit 1 with check's verdict line, and a planar one runs.
TEST(IngestCliTest, PlansepCliReadsThroughIngest) {
  ScratchDir dir("cli");
  const auto cli = [&](const char* mode, const std::string& text) {
    return run(std::string(PLANSEP_CLI_BIN) + " " + mode + " < " +
                   write_file(dir, "in.txt", text),
               dir);
  };
  const std::pair<const char*, const char*> rejected[] = {
      {"1 two\n", "[parse]"},
      {"1 2\n2 3\n3 2\n", "[duplicate-edge]"},
      {"1 2\n2 2\n", "[self-loop]"}};
  for (const auto& [text, code] : rejected) {
    const RunResult r = cli("separator", text);
    EXPECT_EQ(r.exit_code, 2) << text << r.err;
    EXPECT_NE(r.err.find(code), std::string::npos) << r.err;
  }

  std::string k5;
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) {
      k5 += std::to_string(u) + " " + std::to_string(v) + "\n";
    }
  }
  const RunResult nonplanar = cli("check", k5);
  EXPECT_EQ(nonplanar.exit_code, 1) << nonplanar.err;
  EXPECT_EQ(nonplanar.out.rfind("{\"planar\":false", 0), 0u) << nonplanar.out;

  std::string grid;  // 3x3 grid, ids 10..18
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const int v = 10 + 3 * r + c;
      if (c < 2) grid += std::to_string(v) + " " + std::to_string(v + 1) + "\n";
      if (r < 2) grid += std::to_string(v) + " " + std::to_string(v + 3) + "\n";
    }
  }
  const RunResult sep = cli("separator", grid);
  EXPECT_EQ(sep.exit_code, 0) << sep.err;
  EXPECT_EQ(sep.out.rfind("{\"separator\":[", 0), 0u) << sep.out;
}

}  // namespace
