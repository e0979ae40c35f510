// Length-prefixed message framing over a byte-stream file descriptor.
//
// The sharded multi-process runner (sim/shard.cpp) exchanges
// time-window batches between the coordinator and its shard children over
// AF_UNIX stream socketpairs.  SOCK_STREAM preserves byte order but not
// message boundaries, so every message travels as a big-endian u32 length
// prefix followed by the payload.  Both helpers loop over partial reads and
// writes (EINTR, socket buffer limits) and treat EOF / any error as a
// clean nullopt/false -- the caller decides whether a vanished peer is a
// protocol failure.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace lbrm::transport {

/// Write one framed message.  False on any write error (peer gone).
bool write_frame(int fd, std::span<const std::uint8_t> payload);

/// Read one framed message.  std::nullopt on EOF before a full frame or on
/// any read error.
std::optional<std::vector<std::uint8_t>> read_frame(int fd);

}  // namespace lbrm::transport
