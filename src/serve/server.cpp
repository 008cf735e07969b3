#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "core/reduction_report.hpp"
#include "trace/trace_io.hpp"
#include "util/table.hpp"
#include "util/version.hpp"

namespace tracered::serve {

/// Per-connection state machine. Owned and touched ONLY by the poll-loop
/// thread; the feeder is moved out to the reducer thread at END (via the
/// mutex-protected job queue), so no Connection field is ever shared.
struct Server::Connection {
  enum class State {
    kHandshake,  ///< waiting for HELLO
    kStreaming,  ///< feeding DATA into the feeder
    kReducing,   ///< END seen; feeder handed to the reducer thread
    kDraining,   ///< reply (or ERROR) queued; flushing, then close
  };

  util::Fd fd;
  std::uint64_t id = 0;
  State state = State::kHandshake;

  /// Input ring: fixed capacity (the window), compacted before each read.
  std::vector<std::uint8_t> inBuf;
  std::size_t inConsumed = 0;

  /// Un-sent reply bytes (acks, then STATS/RESULT/END or ERROR frames).
  std::vector<std::uint8_t> outBuf;
  std::size_t outSent = 0;

  std::unique_ptr<TraceStreamFeeder> feeder;
  core::ReductionConfig config;
  std::uint64_t payloadConsumed = 0;  ///< cumulative DATA bytes accepted
  std::uint64_t lastAcked = 0;
  std::uint64_t dataBytes = 0;  ///< total DATA payload (the full-trace size)
  bool servedTrace = false;     ///< RESULT (not ERROR) is what is draining
  bool dead = false;            ///< swept (and closed) after event handling
  bool abrupt = false;          ///< dead because the peer vanished

  std::size_t inUnconsumed() const { return inBuf.size() - inConsumed; }
  std::size_t outUnsent() const { return outBuf.size() - outSent; }
};

/// A completed stream on its way to the reducer thread.
struct Server::Job {
  std::uint64_t connId = 0;
  std::unique_ptr<TraceStreamFeeder> feeder;
  core::ReductionConfig config;
  std::uint64_t dataBytes = 0;
};

/// The reducer thread's reply on its way back to the poll loop.
struct Server::Completed {
  std::uint64_t connId = 0;
  std::vector<std::uint8_t> frames;
  bool ok = false;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), pool_(options_.threads) {
  if (options_.listenAddrs.empty())
    throw std::invalid_argument("serve: at least one listen address is required");
  if (options_.windowBytes < 4096)
    throw std::invalid_argument("serve: windowBytes must be at least 4096");
  util::ignoreSigpipe();
  for (const std::string& addr : options_.listenAddrs)
    listeners_.push_back(util::listenSocket(addr));
  int pipeFds[2];
  if (::pipe(pipeFds) != 0) throw std::runtime_error("serve: cannot create wake pipe");
  wakeRead_ = util::Fd(pipeFds[0]);
  wakeWrite_ = util::Fd(pipeFds[1]);
  util::setNonBlocking(wakeRead_.get());
  util::setNonBlocking(wakeWrite_.get());
}

Server::~Server() { stop(); }

std::vector<std::string> Server::boundAddresses() const {
  std::vector<std::string> out;
  out.reserve(listeners_.size());
  for (const util::Fd& fd : listeners_) out.push_back(util::localAddress(fd.get()));
  return out;
}

void Server::stop() {
  stop_.store(true, std::memory_order_release);
  // Async-signal-safe wake-up: no locks, just a pipe write (EAGAIN means a
  // wake byte is already pending, which is just as good).
  const char b = 'x';
  [[maybe_unused]] const ssize_t rc = ::write(wakeWrite_.get(), &b, 1);
}

Server::Metrics Server::metrics() const {
  std::lock_guard<std::mutex> lock(metricsMutex_);
  return metrics_;
}

void Server::noteBuffered(const Connection& c) {
  const std::size_t buffered = c.inUnconsumed() +
                               (c.feeder ? c.feeder->pendingBytes() : 0) +
                               c.outUnsent();
  std::lock_guard<std::mutex> lock(metricsMutex_);
  if (buffered > metrics_.peakConnBufferedBytes)
    metrics_.peakConnBufferedBytes = buffered;
}

void Server::run() {
  std::thread reducer([this] { reducerLoop(); });
  pollLoop();
  {
    std::lock_guard<std::mutex> lock(reducerMutex_);
    reducerQuit_ = true;
  }
  reducerCv_.notify_all();
  reducer.join();
  conns_.clear();
}

void Server::pollLoop() {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> ids;  // parallel to pfds; 0 = listener/wake
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    ids.clear();
    pfds.push_back({wakeRead_.get(), POLLIN, 0});
    ids.push_back(0);
    if (conns_.size() < options_.maxConnections)
      for (const util::Fd& l : listeners_) {
        pfds.push_back({l.get(), POLLIN, 0});
        ids.push_back(0);
      }
    for (const auto& [id, cp] : conns_) {
      const Connection& c = *cp;
      short events = 0;
      // Backpressure, both directions: only read while the input ring has
      // space AND the peer is draining our output — a stalled reader gets
      // its *input* paused once `windowBytes` of un-sent acks pile up, which
      // is what caps per-connection memory (docs/SERVE.md §4).
      const bool wantRead = (c.state == Connection::State::kHandshake ||
                             c.state == Connection::State::kStreaming) &&
                            c.inUnconsumed() < inRingCapacity() &&
                            c.outUnsent() <= options_.windowBytes;
      if (wantRead) events |= POLLIN;
      if (c.outUnsent() > 0) events |= POLLOUT;
      pfds.push_back({c.fd.get(), events, 0});
      ids.push_back(id);
    }

    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short re = pfds[i].revents;
      if (re == 0) continue;
      if (pfds[i].fd == wakeRead_.get()) {
        char buf[64];
        while (::read(wakeRead_.get(), buf, sizeof buf) > 0) {
        }
        drainCompleted();
        continue;
      }
      if (ids[i] == 0) {
        acceptPending(pfds[i].fd);
        continue;
      }
      const auto it = conns_.find(ids[i]);
      if (it == conns_.end()) continue;
      Connection& c = *it->second;
      if (re & (POLLIN | POLLHUP | POLLERR)) readable(c);
      if (!c.dead && (re & POLLOUT) && c.outUnsent() > 0) writable(c);
      noteBuffered(c);
    }

    // Sweep phase: closes happen here, never mid-iteration. A fully drained
    // kDraining connection is the graceful end of one served trace.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& c = *it->second;
      const bool drained =
          c.state == Connection::State::kDraining && c.outUnsent() == 0 && !c.dead;
      if (c.dead || drained) {
        if (drained && c.servedTrace) ++tracesDrained_;
        if (c.dead && c.abrupt) {
          std::lock_guard<std::mutex> lock(metricsMutex_);
          ++metrics_.abruptDisconnects;
        }
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (options_.maxTraces != 0 && tracesDrained_ >= options_.maxTraces) break;
  }
}

void Server::acceptPending(int listenFd) {
  while (conns_.size() < options_.maxConnections) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: try again next poll
    }
    util::setNonBlocking(fd);
    if (options_.sendBufferBytes > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sendBufferBytes,
                   sizeof options_.sendBufferBytes);
    auto c = std::make_unique<Connection>();
    c->fd = util::Fd(fd);
    c->id = nextConnId_++;
    c->inBuf.reserve(inRingCapacity());
    const std::uint64_t id = c->id;
    conns_.emplace(id, std::move(c));
    std::lock_guard<std::mutex> lock(metricsMutex_);
    ++metrics_.connectionsAccepted;
  }
}

void Server::readable(Connection& c) {
  // Compact the consumed prefix, then fill the ring up to its capacity.
  if (c.inConsumed > 0) {
    c.inBuf.erase(c.inBuf.begin(), c.inBuf.begin() + static_cast<std::ptrdiff_t>(c.inConsumed));
    c.inConsumed = 0;
  }
  bool sawEof = false;
  while (c.inBuf.size() < inRingCapacity()) {
    const std::size_t old = c.inBuf.size();
    const std::size_t want = inRingCapacity() - old;
    c.inBuf.resize(old + want);
    const util::IoResult r = util::readSome(c.fd.get(), c.inBuf.data() + old, want);
    c.inBuf.resize(old + (r.status == util::IoStatus::kOk ? r.n : 0));
    if (r.status == util::IoStatus::kOk) continue;
    if (r.status == util::IoStatus::kEof || r.status == util::IoStatus::kError)
      sawEof = true;
    break;  // kWouldBlock, kEof, or kError
  }

  // Decode every complete frame now buffered.
  while (!c.dead && c.state != Connection::State::kReducing &&
         c.state != Connection::State::kDraining) {
    std::size_t consumed = 0;
    std::optional<Frame> frame;
    try {
      frame = tryExtractFrame(c.inBuf.data() + c.inConsumed, c.inUnconsumed(), consumed);
    } catch (const std::exception& e) {
      sendError(c, e.what());
      break;
    }
    if (!frame) {
      // A frame that cannot even fit the ring can never complete: reject
      // instead of stalling forever with a full ring. The ring holds one
      // window-sized payload plus its header, so a max-window DATA frame
      // always fits.
      if (c.inUnconsumed() >= inRingCapacity())
        sendError(c, "frame larger than the " + std::to_string(options_.windowBytes) +
                         "-byte connection window");
      break;
    }
    c.inConsumed += consumed;
    handleFrame(c, *frame);
  }

  if (sawEof && !c.dead && c.state != Connection::State::kDraining) {
    // Peer vanished mid-conversation (truncated handshake, abrupt
    // disconnect mid-stream, or mid-reduce). Drop the connection; a queued
    // reduce result will find it gone and be discarded.
    c.dead = true;
    c.abrupt = true;
  } else if (sawEof && c.state == Connection::State::kDraining && c.outUnsent() > 0) {
    c.dead = true;  // closed without reading the reply
    c.abrupt = true;
  }
}

void Server::writable(Connection& c) {
  while (c.outUnsent() > 0) {
    const util::IoResult r =
        util::writeSome(c.fd.get(), c.outBuf.data() + c.outSent, c.outUnsent());
    if (r.status == util::IoStatus::kOk) {
      c.outSent += r.n;
      continue;
    }
    if (r.status == util::IoStatus::kWouldBlock) return;
    c.dead = true;  // kClosed / kError: reader is gone
    c.abrupt = true;
    return;
  }
  if (c.outSent == c.outBuf.size() && c.outSent > 0) {
    c.outBuf.clear();
    c.outSent = 0;
  }
}

void Server::queueOutput(Connection& c, std::vector<std::uint8_t> bytes) {
  if (c.outBuf.empty()) {
    c.outBuf = std::move(bytes);
    c.outSent = 0;
  } else {
    c.outBuf.insert(c.outBuf.end(), bytes.begin(), bytes.end());
  }
  writable(c);  // opportunistic flush; the rest goes out on POLLOUT
}

void Server::sendError(Connection& c, const std::string& message) {
  if (c.state == Connection::State::kDraining) return;
  std::vector<std::uint8_t> frames;
  appendFrame(frames, FrameType::kError, encodeError(message));
  c.state = Connection::State::kDraining;
  c.servedTrace = false;
  {
    std::lock_guard<std::mutex> lock(metricsMutex_);
    ++metrics_.protocolErrors;
  }
  queueOutput(c, std::move(frames));
}

void Server::handleFrame(Connection& c, const Frame& f) {
  switch (c.state) {
    case Connection::State::kHandshake: {
      if (f.type != FrameType::kHello) {
        sendError(c, std::string("expected HELLO as the first frame, got ") +
                         frameTypeName(f.type));
        return;
      }
      HelloPayload hello;
      try {
        hello = decodeHello(f.payload);
      } catch (const std::exception& e) {
        sendError(c, e.what());
        return;
      }
      if (hello.version != kProtocolVersion) {
        sendError(c, "protocol version mismatch: client speaks v" +
                         std::to_string(hello.version) + ", this server speaks v" +
                         std::to_string(kProtocolVersion) + " (" + util::kVersionLine +
                         ")");
        return;
      }
      try {
        c.config = core::ReductionConfig::fromName(hello.config);
      } catch (const std::invalid_argument& e) {
        sendError(c, e.what());
        return;
      }
      c.config.executor = &pool_;
      c.feeder = std::make_unique<TraceStreamFeeder>(c.config, options_.windowBytes);
      WelcomePayload welcome;
      welcome.windowBytes = options_.windowBytes;
      std::vector<std::uint8_t> frames;
      appendFrame(frames, FrameType::kWelcome, encodeWelcome(welcome));
      c.state = Connection::State::kStreaming;
      queueOutput(c, std::move(frames));
      return;
    }
    case Connection::State::kStreaming: {
      if (f.type == FrameType::kData) {
        c.dataBytes += f.payload.size();
        try {
          c.feeder->push(f.payload.data(), f.payload.size());
        } catch (const std::exception& e) {
          sendError(c, e.what());
          return;
        }
        c.payloadConsumed += f.payload.size();
        const std::uint64_t ackEvery = options_.ackEveryBytes != 0
                                           ? options_.ackEveryBytes
                                           : options_.windowBytes / 4 + 1;
        if (c.payloadConsumed - c.lastAcked >= ackEvery) {
          c.lastAcked = c.payloadConsumed;
          std::vector<std::uint8_t> frames;
          appendFrame(frames, FrameType::kAck, encodeAck(c.payloadConsumed));
          queueOutput(c, std::move(frames));
        }
        return;
      }
      if (f.type == FrameType::kEnd) {
        if (!f.payload.empty()) {
          sendError(c, "END frame must have an empty payload");
          return;
        }
        c.state = Connection::State::kReducing;
        Job job;
        job.connId = c.id;
        job.feeder = std::move(c.feeder);
        job.config = c.config;
        job.dataBytes = c.dataBytes;
        {
          std::lock_guard<std::mutex> lock(reducerMutex_);
          jobs_.push_back(std::move(job));
        }
        reducerCv_.notify_one();
        return;
      }
      sendError(c, std::string("unexpected ") + frameTypeName(f.type) +
                       " frame while streaming (want DATA or END)");
      return;
    }
    case Connection::State::kReducing:
    case Connection::State::kDraining:
      sendError(c, std::string("unexpected ") + frameTypeName(f.type) +
                       " frame after END");
      return;
  }
}

void Server::drainCompleted() {
  std::deque<Completed> done;
  {
    std::lock_guard<std::mutex> lock(reducerMutex_);
    done.swap(completed_);
  }
  for (Completed& d : done) {
    const auto it = conns_.find(d.connId);
    if (it == conns_.end()) continue;  // client vanished mid-reduce
    Connection& c = *it->second;
    if (c.dead) continue;
    c.servedTrace = d.ok;
    if (!d.ok) {
      std::lock_guard<std::mutex> lock(metricsMutex_);
      ++metrics_.protocolErrors;
    }
    c.state = Connection::State::kDraining;
    queueOutput(c, std::move(d.frames));
    noteBuffered(c);
  }
}

void Server::reducerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(reducerMutex_);
      reducerCv_.wait(lock, [&] { return reducerQuit_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (reducerQuit_) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    Completed done;
    done.connId = job.connId;
    try {
      const auto t0 = std::chrono::steady_clock::now();
      const core::ReductionResult result = job.feeder->finishStream();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      const std::vector<std::uint8_t> trr = serializeReducedTrace(result.reduced);

      core::ReportRows rows = core::reductionReportRows(
          job.config, result, job.feeder->recordsFed(), job.dataBytes, trr.size());
      rows.emplace_back("reduce wall ms", fmtF(ms, 1));
      const core::ReportRows counterRows = core::matchCounterRows(result.counters);
      rows.insert(rows.end(), counterRows.begin(), counterRows.end());

      appendFrame(done.frames, FrameType::kStats, encodeStats(rows));
      for (std::size_t off = 0; off < trr.size() || off == 0;) {
        const std::size_t n = std::min(kMaxFramePayload, trr.size() - off);
        appendFrame(done.frames, FrameType::kResult, trr.data() + off, n);
        off += n;
        if (n == 0) break;
      }
      appendFrame(done.frames, FrameType::kEnd, nullptr, 0);
      done.ok = true;
      {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        ++metrics_.tracesServed;
      }
    } catch (const std::exception& e) {
      done.frames.clear();
      appendFrame(done.frames, FrameType::kError, encodeError(e.what()));
      done.ok = false;
    }

    {
      std::lock_guard<std::mutex> lock(reducerMutex_);
      completed_.push_back(std::move(done));
    }
    const char b = 'x';
    [[maybe_unused]] const ssize_t rc = ::write(wakeWrite_.get(), &b, 1);
  }
}

}  // namespace tracered::serve
