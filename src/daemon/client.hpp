#pragma once

/// \file
/// Blocking plansepd client: connect-with-retry, typed submit/control
/// helpers, and a stashing frame reader (used by tests and perfbench).

// A small blocking client for the plansepd protocol, shared by the
// daemon tests and perfbench.
//
// Reads go through a stash: read_matching() scans for a frame of the
// wanted type(s)/id, parking every other frame for later next_frame()
// calls, so control handshakes (ping, pause, drain) work while responses
// are still streaming in. All methods are blocking with a timeout and
// must be called from one thread. send_raw() exposes the socket for the
// protocol fuzz tests, which need to write deliberately broken bytes.

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "daemon/protocol.hpp"
#include "io/frame.hpp"

namespace plansep::daemon {

/// Blocking protocol client over a UNIX stream socket.
class Client {
 public:
  Client() = default;  ///< unconnected client
  ~Client();           ///< closes the socket
  Client(const Client&) = delete;             ///< non-copyable
  Client& operator=(const Client&) = delete;  ///< non-copyable
  /// Movable: the source is left unconnected.
  Client(Client&& o) noexcept
      : fd_(o.fd_),
        decoder_(std::move(o.decoder_)),
        stash_(std::move(o.stash_)) {
    o.fd_ = -1;
  }
  /// Move assignment; closes any current socket first.
  Client& operator=(Client&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = o.fd_;
      decoder_ = std::move(o.decoder_);
      stash_ = std::move(o.stash_);
      o.fd_ = -1;
    }
    return *this;
  }

  /// Connects, retrying until the daemon binds the socket or timeout_ms
  /// elapses. Returns false on timeout.
  bool connect(const std::string& socket_path, int timeout_ms = 5000);
  /// True while the socket is open.
  bool connected() const { return fd_ >= 0; }
  /// Closes the socket (idempotent).
  void close();

  /// Sends one encoded frame. Throws std::runtime_error on a dead socket.
  void send_frame(FrameType type, std::uint64_t id,
                  std::vector<std::uint8_t> payload = {});
  /// Sends raw bytes verbatim — the fuzz tests' corrupt-frame hatch.
  void send_raw(const std::vector<std::uint8_t>& bytes);

  /// Submits one job line with the given correlation id.
  void submit(std::uint64_t id, Priority priority,
              const std::string& spec_line);

  /// Submits one batched distance-query job (kQueryReq).
  void submit_query(std::uint64_t id, const QueryRequestPayload& req);
  /// submit_query + blocking wait for its kQueryResp; nullopt on timeout,
  /// a reject or an error frame for the id.
  std::optional<QueryResponsePayload> query(std::uint64_t id,
                                            const QueryRequestPayload& req,
                                            int timeout_ms = 30000);

  /// Submits one edge-list admission (kIngestReq).
  void submit_ingest(std::uint64_t id, const IngestRequestPayload& req);
  /// submit_ingest + blocking wait for its kIngestResp; nullopt on
  /// timeout, a reject or an error frame for the id.
  std::optional<IngestResponsePayload> ingest(std::uint64_t id,
                                              const IngestRequestPayload& req,
                                              int timeout_ms = 30000);

  /// Next frame (stash first, then the socket). nullopt on timeout or
  /// EOF; throws io::FormatError if the daemon's byte stream is
  /// malformed.
  std::optional<io::Frame> next_frame(int timeout_ms = 10000);
  /// Next frame of the wanted type with the wanted id, parking every
  /// other frame in the stash. nullopt on timeout/EOF.
  std::optional<io::Frame> read_matching(FrameType type, std::uint64_t id,
                                         int timeout_ms = 10000);

  /// Ping round-trip; false on timeout.
  bool ping(std::uint64_t id, int timeout_ms = 10000);
  /// Pauses dispatch (waits for the ack); false on timeout.
  bool pause(std::uint64_t id, int timeout_ms = 10000);
  /// Resumes dispatch (waits for the ack); false on timeout.
  bool resume(std::uint64_t id, int timeout_ms = 10000);
  /// Metrics snapshot JSON; nullopt on timeout.
  std::optional<std::string> metrics(std::uint64_t id, int timeout_ms = 10000);
  /// Graceful drain; returns the kDrained summary JSON, nullopt on
  /// timeout.
  std::optional<std::string> drain(std::uint64_t id, int timeout_ms = 30000);

 private:
  std::optional<io::Frame> read_socket_frame(int timeout_ms);
  // The first frame for `id` of any of `types`, from the stash or the
  // socket, parking every other frame read meanwhile. nullopt on
  // timeout/EOF.
  std::optional<io::Frame> read_first_of(
      std::uint64_t id, std::initializer_list<FrameType> types,
      int timeout_ms);

  int fd_ = -1;
  io::FrameDecoder decoder_;
  std::deque<io::Frame> stash_;
};

}  // namespace plansep::daemon
