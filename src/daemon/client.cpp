#include "daemon/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace plansep::daemon {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

}  // namespace

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::connect(const std::string& socket_path, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) return false;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      fd_ = fd;
      return true;
    }
    ::close(fd);
    if (Clock::now() >= deadline) return false;
    // The daemon may still be binding; retry shortly.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void Client::send_raw(const std::vector<std::uint8_t>& bytes) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

void Client::send_frame(FrameType type, std::uint64_t id,
                        std::vector<std::uint8_t> payload) {
  send_raw(make_frame(type, id, std::move(payload)));
}

void Client::submit(std::uint64_t id, Priority priority,
                    const std::string& spec_line) {
  send_frame(FrameType::kSubmit, id,
             encode_submit({priority, spec_line}));
}

void Client::submit_query(std::uint64_t id, const QueryRequestPayload& req) {
  send_frame(FrameType::kQueryReq, id, encode_query_request(req));
}

std::optional<QueryResponsePayload> Client::query(
    std::uint64_t id, const QueryRequestPayload& req, int timeout_ms) {
  submit_query(id, req);
  // The daemon answers a query with kQueryResp, or at once with kReject
  // or kError.
  const auto f = read_first_of(
      id, {FrameType::kQueryResp, FrameType::kReject, FrameType::kError},
      timeout_ms);
  if (!f || f->type != static_cast<std::uint8_t>(FrameType::kQueryResp)) {
    return std::nullopt;
  }
  return decode_query_response(f->payload);
}

void Client::submit_ingest(std::uint64_t id, const IngestRequestPayload& req) {
  send_frame(FrameType::kIngestReq, id, encode_ingest_request(req));
}

std::optional<IngestResponsePayload> Client::ingest(
    std::uint64_t id, const IngestRequestPayload& req, int timeout_ms) {
  submit_ingest(id, req);
  // Same shape as query(): kIngestResp, or an immediate kReject/kError.
  const auto f = read_first_of(
      id, {FrameType::kIngestResp, FrameType::kReject, FrameType::kError},
      timeout_ms);
  if (!f || f->type != static_cast<std::uint8_t>(FrameType::kIngestResp)) {
    return std::nullopt;
  }
  return decode_ingest_response(f->payload);
}

std::optional<io::Frame> Client::read_socket_frame(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (auto f = decoder_.next()) return f;
    if (fd_ < 0) return std::nullopt;
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, remaining_ms(deadline));
    if (r == 0) return std::nullopt;  // timeout
    if (r < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close();
      return std::nullopt;  // EOF
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::optional<io::Frame> Client::next_frame(int timeout_ms) {
  if (!stash_.empty()) {
    io::Frame f = std::move(stash_.front());
    stash_.pop_front();
    return f;
  }
  return read_socket_frame(timeout_ms);
}

std::optional<io::Frame> Client::read_matching(FrameType type,
                                               std::uint64_t id,
                                               int timeout_ms) {
  return read_first_of(id, {type}, timeout_ms);
}

std::optional<io::Frame> Client::read_first_of(
    std::uint64_t id, std::initializer_list<FrameType> types, int timeout_ms) {
  const auto wanted = [&](const io::Frame& f) {
    return f.id == id &&
           std::any_of(types.begin(), types.end(), [&](FrameType t) {
             return f.type == static_cast<std::uint8_t>(t);
           });
  };
  const auto it = std::find_if(stash_.begin(), stash_.end(), wanted);
  if (it != stash_.end()) {
    io::Frame f = std::move(*it);
    stash_.erase(it);
    return f;
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    auto f = read_socket_frame(remaining_ms(deadline));
    if (!f || wanted(*f)) return f;
    stash_.push_back(std::move(*f));
  }
}

bool Client::ping(std::uint64_t id, int timeout_ms) {
  send_frame(FrameType::kPing, id);
  return read_matching(FrameType::kPong, id, timeout_ms).has_value();
}

bool Client::pause(std::uint64_t id, int timeout_ms) {
  send_frame(FrameType::kPause, id);
  return read_matching(FrameType::kPong, id, timeout_ms).has_value();
}

bool Client::resume(std::uint64_t id, int timeout_ms) {
  send_frame(FrameType::kResume, id);
  return read_matching(FrameType::kPong, id, timeout_ms).has_value();
}

std::optional<std::string> Client::metrics(std::uint64_t id, int timeout_ms) {
  send_frame(FrameType::kMetricsQuery, id);
  auto f = read_matching(FrameType::kMetricsReply, id, timeout_ms);
  if (!f) return std::nullopt;
  return decode_text(f->payload).text;
}

std::optional<std::string> Client::drain(std::uint64_t id, int timeout_ms) {
  send_frame(FrameType::kDrain, id);
  auto f = read_matching(FrameType::kDrained, id, timeout_ms);
  if (!f) return std::nullopt;
  return decode_text(f->payload).text;
}

}  // namespace plansep::daemon
