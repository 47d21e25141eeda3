// Pins plansep_batch's exit-code contract by running the real binary
// (path baked in as PLANSEP_BATCH_BIN):
//   0 — every job ok;
//   1 — some job errored or failed verification;
//   2 — usage error, including a malformed or out-of-range flag value;
//   3 — every failure was a missed deadline (correct work, blown budget).
// The deadline path is driven deterministically with --deadline-ms=0
// ("already expired"), so the test never depends on machine speed.
// plansepd (PLANSEP_DAEMON_BIN) shares the strict flag parsing.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("plansep_batch_cli_") + tag + "_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                .string();
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct RunResult {
  int exit_code = -1;
  std::string err;
};

// Runs the batch binary over a job file, capturing stderr (the summary
// lines) and the exit code.
RunResult run_command(const std::string& cmd, const std::string& err_path) {
  const int status = std::system((cmd + " 2>" + err_path).c_str());
  RunResult r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(err_path);
  r.err.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  return r;
}

RunResult run_batch(const std::string& jobs_path, const std::string& err_path,
                    const std::string& extra_flag = "") {
  return run_command(std::string(PLANSEP_BATCH_BIN) + " --jobs=" + jobs_path +
                         " --out=/dev/null " + extra_flag,
                     err_path);
}

std::string write_jobs(const ScratchDir& dir, const std::string& contents) {
  const std::string path = dir.path() + "/jobs.txt";
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(BatchCliTest, AllOkExitsZero) {
  ScratchDir dir("ok");
  const std::string jobs =
      write_jobs(dir, "--family=grid --n=16 --seed=1 --algo=separator\n");
  const RunResult r = run_batch(jobs, dir.path() + "/err.txt");
  EXPECT_EQ(r.exit_code, 0) << r.err;
}

TEST(BatchCliTest, AllDeadlineMissExitsThreeWithSummary) {
  ScratchDir dir("deadline");
  // --deadline-ms=0 is deterministically "already expired": every job
  // misses, none errors.
  const std::string jobs = write_jobs(
      dir,
      "--family=grid --n=16 --seed=1 --algo=separator --deadline-ms=0\n"
      "--family=cycle --n=12 --seed=2 --algo=dfs --deadline-ms=0\n");
  const RunResult r = run_batch(jobs, dir.path() + "/err.txt");
  EXPECT_EQ(r.exit_code, 3) << r.err;
  EXPECT_NE(r.err.find("2 of 2 jobs missed their deadline"), std::string::npos)
      << r.err;
}

TEST(BatchCliTest, MixedDeadlineAndErrorExitsOne) {
  ScratchDir dir("mixed");
  // An unknown family is a job "error"; mixing it with a deadline miss
  // must yield the generic failure code, not the deadline-only one.
  const std::string jobs = write_jobs(
      dir,
      "--family=grid --n=16 --seed=1 --algo=separator --deadline-ms=0\n"
      "--family=nosuchfamily --n=16 --seed=1 --algo=separator\n");
  const RunResult r = run_batch(jobs, dir.path() + "/err.txt");
  EXPECT_EQ(r.exit_code, 1) << r.err;
}

TEST(BatchCliTest, MalformedFlagValuesExitTwo) {
  ScratchDir dir("flags");
  const std::string jobs =
      write_jobs(dir, "--family=grid --n=16 --seed=1 --algo=separator\n");
  // Each used to run with a silent fallback: one worker, or a 64-byte
  // cache for "64MB".
  for (const char* flag : {"--threads=abc", "--threads=0", "--threads=-4",
                           "--cache-bytes=64MB", "--cache-bytes=-1"}) {
    const RunResult r = run_batch(jobs, dir.path() + "/err.txt", flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.err;
    EXPECT_NE(r.err.find("usage: plansep_batch"), std::string::npos) << r.err;
  }
}

TEST(DaemonCliTest, MalformedCacheBytesExitsTwoBeforeBinding) {
  ScratchDir dir("daemon");
  const std::string socket = dir.path() + "/d.sock";
  // `timeout` bounds the run should the daemon wrongly start serving.
  const RunResult r = run_command(std::string("timeout 10 ") +
                                      PLANSEP_DAEMON_BIN + " --socket=" +
                                      socket + " --cache-bytes=64MB",
                                  dir.path() + "/err.txt");
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_NE(r.err.find("usage: plansepd"), std::string::npos) << r.err;
  EXPECT_FALSE(fs::exists(socket));
}

}  // namespace
