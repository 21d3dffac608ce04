#include "relay.h"

#include <algorithm>
#include <poll.h>
#include <sys/socket.h>

#include "campaign/net.h"
#include "support/check.h"

namespace campbench {

using namespace refine;
using campaign::MsgType;

struct FrameRelay::Link {
  UniqueFd worker;
  UniqueFd coordinator;
  std::uint32_t conn = 0;
  std::vector<Event> upEvents;    // written only by the up pump
  std::vector<Event> downEvents;  // written only by the down pump
  std::atomic<bool> dead{false};
  std::thread up;    // worker -> coordinator
  std::thread down;  // coordinator -> worker

  /// Shutting down both sockets unblocks the other pump's readFrame, so a
  /// close on either side ends the whole link, as it would without a relay.
  void sever() {
    if (!dead.exchange(true)) {
      ::shutdown(worker.get(), SHUT_RDWR);
      ::shutdown(coordinator.get(), SHUT_RDWR);
    }
  }
};

FrameRelay::FrameRelay(std::string host, std::uint16_t targetPort)
    : host_(std::move(host)),
      targetPort_(targetPort),
      epoch_(std::chrono::steady_clock::now()),
      listener_(tcpListen(0)) {
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

FrameRelay::~FrameRelay() { stop(); }

void FrameRelay::stop() {
  stop_ = true;
  if (acceptThread_.joinable()) acceptThread_.join();
  std::scoped_lock lock(linksMutex_);
  for (auto& link : links_) {
    link->sever();
    if (link->up.joinable()) link->up.join();
    if (link->down.joinable()) link->down.join();
  }
}

std::vector<FrameRelay::Event> FrameRelay::events() const {
  std::vector<Event> all;
  for (const auto& link : links_) {
    all.insert(all.end(), link->upEvents.begin(), link->upEvents.end());
    all.insert(all.end(), link->downEvents.begin(), link->downEvents.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& a, const Event& b) { return a.ns < b.ns; });
  return all;
}

void FrameRelay::acceptLoop() {
  while (!stop_.load()) {
    pollfd pfd{listener_.fd.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);  // wake to notice stop()
    if (ready <= 0 || !(pfd.revents & POLLIN)) continue;
    UniqueFd worker;
    UniqueFd coordinator;
    try {
      worker = tcpAccept(listener_.fd.get());
      coordinator = tcpConnect(host_, targetPort_, 2.0);
    } catch (const CheckError&) {
      continue;  // coordinator gone: the worker sees a closed connection
    }
    auto link = std::make_unique<Link>();
    link->worker = std::move(worker);
    link->coordinator = std::move(coordinator);
    Link* raw = link.get();
    std::scoped_lock lock(linksMutex_);
    link->conn = nextConn_++;
    link->up = std::thread([this, raw] { pump(*raw, true); });
    link->down = std::thread([this, raw] { pump(*raw, false); });
    links_.push_back(std::move(link));
  }
}

void FrameRelay::pump(Link& link, bool up) {
  const int src = up ? link.worker.get() : link.coordinator.get();
  const int dst = up ? link.coordinator.get() : link.worker.get();
  std::vector<Event>& events = up ? link.upEvents : link.downEvents;
  while (true) {
    std::optional<campaign::Frame> frame;
    try {
      frame = campaign::readFrame(src);
    } catch (const CheckError&) {
      break;  // torn stream or severed link
    }
    if (!frame) break;  // clean close at a frame boundary
    Event event;
    event.ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
    event.conn = link.conn;
    event.up = up;
    event.type = static_cast<std::uint8_t>(frame->type);
    event.bytes = static_cast<std::uint32_t>(frame->payload.size() + 5);
    switch (frame->type) {
      case MsgType::Grant:
        if (const auto grant = campaign::decodeGrant(frame->payload)) {
          event.lease = grant->leaseId;
          event.epoch = grant->epoch;
        }
        break;
      case MsgType::Record:
        if (const auto record = campaign::decodeRecord(frame->payload)) {
          event.lease = record->ref.leaseId;
          event.epoch = record->ref.epoch;
        }
        break;
      case MsgType::Heartbeat:
      case MsgType::LeaseDone:
        if (const auto ref = campaign::decodeLeaseRef(frame->payload)) {
          event.lease = ref->leaseId;
          event.epoch = ref->epoch;
        }
        break;
      default:
        break;
    }
    events.push_back(event);
    try {
      campaign::writeFrame(dst, frame->type, frame->payload);
    } catch (const CheckError&) {
      break;
    }
  }
  link.sever();
}

}  // namespace campbench
