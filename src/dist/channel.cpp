#include "dist/channel.hpp"

#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace abftc::dist {

SharedRegion::SharedRegion(std::size_t bytes) {
  ABFTC_REQUIRE(bytes > 0, "shared region must not be empty");
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED)
    throw dist_error("mmap of " + std::to_string(bytes) +
                     "-byte shared arena failed: " +
                     std::string(std::strerror(errno)));
  // No memset: an anonymous mapping is zero-filled by the kernel (mmap(2),
  // MAP_ANONYMOUS: "its contents are initialized to zero"), so clearing it
  // again would only touch every page once more.
  map_ = map;
  len_ = bytes;
}

SharedRegion::~SharedRegion() {
  if (map_ != nullptr) ::munmap(map_, len_);
}

std::uint32_t frame_crc(MsgType type, const std::uint64_t (&args)[4]) {
  std::byte buf[sizeof(std::uint32_t) + sizeof(args)];
  const auto t = static_cast<std::uint32_t>(type);
  std::memcpy(buf, &t, sizeof(t));
  std::memcpy(buf + sizeof(t), args, sizeof(args));
  return common::crc32(std::span<const std::byte>(buf, sizeof(buf)));
}

void post(Mailbox& mb, MsgType type, std::uint64_t a0, std::uint64_t a1,
          std::uint64_t a2, std::uint64_t a3) {
  mb.type = static_cast<std::uint32_t>(type);
  mb.args[0] = a0;
  mb.args[1] = a1;
  mb.args[2] = a2;
  mb.args[3] = a3;
  mb.crc = frame_crc(type, mb.args);
  // The release bump publishes the payload: a reader that observes the new
  // seq is guaranteed to see the completed frame, and a writer SIGKILLed
  // before this line leaves the old seq — the torn payload stays invisible.
  mb.seq.store(mb.seq.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
}

std::optional<Message> try_recv(Mailbox& mb, std::uint64_t& last_seen) {
  const std::uint64_t seq = mb.seq.load(std::memory_order_acquire);
  if (seq == last_seen) return std::nullopt;
  Message msg;
  msg.type = static_cast<MsgType>(mb.type);
  std::memcpy(msg.args, mb.args, sizeof(msg.args));
  if (frame_crc(msg.type, msg.args) != mb.crc)
    throw dist_error("mailbox frame CRC mismatch (seq " + std::to_string(seq) +
                     ")");
  last_seen = seq;
  return msg;
}

std::optional<Message> recv(Mailbox& mb, std::uint64_t& last_seen,
                            double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  // Capped exponential backoff: the first probes stay 50 µs apart so a
  // just-posted frame (or a rank death) is noticed far below a block step,
  // but a long wait — checkpoint boundary, a hang cell sitting out its
  // deadline — decays to 1 ms naps instead of burning a core.
  long nap_ns = 50'000;
  constexpr long kNapCapNs = 1'000'000;
  while (true) {
    if (auto msg = try_recv(mb, last_seen)) return msg;
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    timespec nap{0, nap_ns};
    ::nanosleep(&nap, nullptr);
    nap_ns = std::min(nap_ns * 2, kNapCapNs);
  }
}

void reset(Mailbox& mb) {
  mb.seq.store(0, std::memory_order_relaxed);
  mb.type = 0;
  mb.crc = 0;
  std::memset(mb.args, 0, sizeof(mb.args));
  std::atomic_thread_fence(std::memory_order_release);
}

}  // namespace abftc::dist
