// Pins plansep_batch's exit-code contract by running the real binary
// (path baked in as PLANSEP_BATCH_BIN):
//   0 — every job ok;
//   1 — some job errored or failed verification;
//   2 — usage error, including a malformed or out-of-range flag value;
//   3 — every failure was a missed deadline (correct work, blown budget).
// The deadline path is driven deterministically with --deadline-ms=0
// ("already expired"), so the test never depends on machine speed.
// plansepd (PLANSEP_DAEMON_BIN) shares the strict flag parsing, and is
// also run as a process and driven over its socket, cold and then warm
// after a restart.

#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "scratch_dir.hpp"

extern char** environ;

namespace {

namespace daemon = plansep::daemon;

namespace fs = std::filesystem;

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

// A plansepd child process. The destructor SIGTERMs a daemon that is
// still running and reaps it (ignoring its exit code), so a failed
// assertion never leaves one behind.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::vector<std::string>& flags) {
    std::vector<char*> argv{const_cast<char*>(PLANSEP_DAEMON_BIN)};
    for (const std::string& f : flags) {
      argv.push_back(const_cast<char*>(f.c_str()));
    }
    argv.push_back(nullptr);
    if (::posix_spawn(&pid_, PLANSEP_DAEMON_BIN, nullptr, nullptr,
                      argv.data(), environ) != 0) {
      pid_ = -1;
    }
  }
  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      wait_exit();
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool spawned() const { return pid_ > 0; }

  // Sends `sig` to the running daemon.
  void send(int sig) const { ::kill(pid_, sig); }

  // Reaps the daemon and returns its exit code; -1 if it did not exit
  // normally. A daemon still running after 60 s is killed first.
  int wait_exit() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    int status = 0;
    pid_t r = 0;
    while ((r = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (r == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return r > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
};

// A counter of a metrics JSON dump ("name":value); -1 when absent.
long long counter(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

struct DaemonRun {
  int exit_code = -1;
  std::map<std::uint64_t, std::string> rows;  // id -> row
  std::vector<std::uint64_t> bad_specs;       // ids answered kBadJobSpec
  std::string metrics;                        // the --metrics-out dump
  bool trace_written = false;
};

// Starts plansepd over the corpus and cache in `dir`, submits each line
// (its index is its id), collects every answer, drains and reaps it.
DaemonRun serve_lines(const ScratchDir& dir, const std::string& tag,
                      const std::vector<std::string>& lines) {
  const std::string socket = dir.path() + "/d.sock";
  const std::string metrics = dir.path() + "/metrics-" + tag + ".json";
  const std::string trace = dir.path() + "/trace-" + tag + ".json";
  DaemonRun out;
  DaemonProcess d({"--socket=" + socket, "--workers=2",
                   "--corpus=" + dir.path() + "/corpus",
                   "--cache-dir=" + dir.path() + "/cache",
                   "--metrics-out=" + metrics, "--trace-out=" + trace});
  if (!d.spawned()) {
    ADD_FAILURE() << "posix_spawn " << PLANSEP_DAEMON_BIN;
    return out;
  }
  daemon::Client c;
  if (!c.connect(socket, 30000)) {
    ADD_FAILURE() << "plansepd never bound " << socket;
    return out;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    c.submit(i, daemon::Priority::kNormal, lines[i]);
  }
  while (out.rows.size() + out.bad_specs.size() < lines.size()) {
    const auto f = c.next_frame(60000);
    if (!f) {
      ADD_FAILURE() << "timed out with " << out.rows.size() << " rows";
      return out;
    }
    if (f->type == static_cast<std::uint8_t>(daemon::FrameType::kResponse)) {
      const daemon::ResponsePayload r = daemon::decode_response(f->payload);
      EXPECT_EQ(r.status, "ok") << r.row;
      out.rows.emplace(f->id, r.row);
    } else if (f->type ==
                   static_cast<std::uint8_t>(daemon::FrameType::kError) &&
               daemon::decode_status(f->payload).code ==
                   daemon::StatusCode::kBadJobSpec) {
      out.bad_specs.push_back(f->id);
    } else {
      ADD_FAILURE() << "unexpected frame type " << static_cast<int>(f->type);
      return out;
    }
  }
  EXPECT_TRUE(c.drain(lines.size(), 60000).has_value());
  out.exit_code = d.wait_exit();
  std::ifstream in(metrics);
  out.metrics.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  out.trace_written = fs::exists(trace);
  return out;
}

// The real binary over its socket: cold jobs, a repeat and a malformed
// line, then a drain that writes both dumps. A second process over the
// same --cache-dir answers the same lines with the same bytes, from disk.
TEST(DaemonCliTest, ServesOverItsSocketAndServesWarmAfterARestart) {
  ScratchDir dir("serve");
  const std::vector<std::string> lines = {
      "--family=grid --n=36 --seed=1 --algo=pipeline",
      "--family=triangulation --n=40 --seed=2 --algo=separator",
      "--family=outerplanar --n=30 --seed=3 --algo=dfs",
      "--family=grid --n=36 --seed=1 --algo=pipeline",  // the repeat
      "--family=grid --bogus=1",                        // malformed
      "--family=cycle --n=20 --seed=4 --algo=baseline-separator",
  };
  const std::vector<std::uint64_t> bad = {4};

  const DaemonRun cold = serve_lines(dir, "cold", lines);
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_EQ(cold.rows.size(), lines.size() - 1);
  EXPECT_EQ(cold.bad_specs, bad);
  ASSERT_FALSE(cold.metrics.empty());
  EXPECT_TRUE(cold.trace_written);
  EXPECT_EQ(counter(cold.metrics, "daemon/admitted"), 5);
  EXPECT_EQ(counter(cold.metrics, "daemon/completed"),
            counter(cold.metrics, "daemon/admitted"));
  EXPECT_GT(counter(cold.metrics, "daemon/cache_served_warm"), 0);

  const DaemonRun warm = serve_lines(dir, "warm", lines);
  EXPECT_EQ(warm.exit_code, 0);
  EXPECT_EQ(warm.rows, cold.rows);
  EXPECT_EQ(warm.bad_specs, bad);
  ASSERT_FALSE(warm.metrics.empty());
  EXPECT_TRUE(warm.trace_written);
  EXPECT_EQ(counter(warm.metrics, "daemon/cache_misses"), 0);
  EXPECT_GT(counter(warm.metrics, "daemon/cache_disk_hits"), 0);
}

// SIGTERM takes the drain path through the daemon's signal handler: the
// daemon writes its --metrics-out dump, counting the connection that
// pinged it, and exits 0.
TEST(DaemonCliTest, SigtermStopsTheDaemonCleanly) {
  ScratchDir dir("sigterm");
  const std::string socket = dir.path() + "/d.sock";
  const std::string metrics = dir.path() + "/metrics.json";
  DaemonProcess d({"--socket=" + socket, "--metrics-out=" + metrics});
  ASSERT_TRUE(d.spawned()) << "posix_spawn " << PLANSEP_DAEMON_BIN;
  daemon::Client c;
  ASSERT_TRUE(c.connect(socket, 30000)) << "plansepd never bound " << socket;
  ASSERT_TRUE(c.ping(1));
  d.send(SIGTERM);
  EXPECT_EQ(d.wait_exit(), 0);
  std::ifstream in(metrics);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(counter(json, "daemon/connections"), 1) << json;
}

}  // namespace
