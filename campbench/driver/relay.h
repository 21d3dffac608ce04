// FrameRelay: a zero-fault, frame-level TCP relay between campaign workers
// and the coordinator, built the way support/chaosproxy.h builds its proxy
// (listener, one link per worker connection, one pump thread per
// direction) but reading and re-writing whole frames with campaign/net.h's
// readFrame/writeFrame. Re-encoding a frame reproduces its bytes, so the
// relay changes nothing on the wire; it only timestamps every frame, which
// gives the benchmark grant latency, waits, leases and bytes from outside
// both processes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/socket.h"

namespace campbench {

class FrameRelay {
 public:
  /// One relayed frame. `up` is worker -> coordinator.
  struct Event {
    std::int64_t ns = 0;  // steady clock, since the relay started
    std::uint32_t conn = 0;
    bool up = false;
    std::uint8_t type = 0;  // campaign::MsgType
    std::uint64_t lease = 0;  // lease id for lease-scoped frames, else 0
    std::uint64_t epoch = 0;
    std::uint32_t bytes = 0;  // on the wire, header included
  };

  /// Listens on an ephemeral loopback-reachable port and forwards each
  /// accepted connection to host:targetPort.
  FrameRelay(std::string host, std::uint16_t targetPort);
  ~FrameRelay();
  FrameRelay(const FrameRelay&) = delete;
  FrameRelay& operator=(const FrameRelay&) = delete;

  std::uint16_t port() const noexcept { return listener_.port; }

  /// Severs every link, stops accepting and joins all threads. Idempotent.
  void stop();

  /// Every relayed frame, ordered by time. Call after stop().
  std::vector<Event> events() const;

 private:
  struct Link;
  void acceptLoop();
  void pump(Link& link, bool up);

  std::string host_;
  std::uint16_t targetPort_;
  std::chrono::steady_clock::time_point epoch_;
  refine::ListenSocket listener_;
  std::atomic<bool> stop_{false};
  std::mutex linksMutex_;  // guards links_ and nextConn_
  std::vector<std::unique_ptr<Link>> links_;
  std::uint32_t nextConn_ = 1;
  std::thread acceptThread_;  // last: it uses every member above
};

}  // namespace campbench
