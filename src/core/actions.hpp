// The sans-IO core interface.
//
// Protocol cores (SenderCore, ReceiverCore, LoggerCore) are pure state
// machines.  They receive inputs -- a decoded packet, a timer expiry, or an
// application call -- together with the current time, and return a list of
// Actions.  A driver (the discrete-event simulator or the epoll/UDP runtime)
// executes the actions.  Cores never touch sockets, clocks or threads, so
// the exact same object runs deterministically inside the simulator and
// "for real" over UDP.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <variant>

#include "common/ids.hpp"
#include "common/payload.hpp"
#include "common/seqnum.hpp"
#include "common/small_vec.hpp"
#include "common/time.hpp"
#include "packet/packet.hpp"

namespace lbrm {

/// Timer classes used across the cores.  A (kind, arg) pair identifies one
/// logical timer; re-arming an armed timer replaces its deadline.
enum class TimerKind : std::uint8_t {
    kHeartbeat = 1,       ///< sender: next heartbeat due
    kIdle = 2,            ///< receiver: MaxIT freshness watchdog
    kNackDelay = 3,       ///< receiver/secondary: short delay before NACKing
    kNackRetry = 4,       ///< receiver/secondary: outstanding NACK not answered
    kLogStoreRetry = 5,   ///< source: primary logger has not acked LogStore
    kAckWait = 6,         ///< source: t_wait expiry for data seq (arg = seq)
    kEpochOpen = 7,       ///< source: acker-selection response window closes
    kEpochRotate = 8,     ///< source: time to start a new epoch
    kProbeRound = 9,      ///< source: group-size-estimation probe round window
    kRemcastWindow = 10,  ///< logger: NACK-counting window for re-multicast (arg = seq)
    kReplicaRetry = 11,   ///< primary: replica has not acked updates
    kDiscovery = 12,      ///< receiver: next expanding-ring discovery attempt
    kFailover = 13,       ///< source: promote-reply wait during failover
    kRetxChannel = 14,    ///< source: next retransmission-channel copy (arg = seq)
    kRetxFallback = 15,   ///< receiver: channel did not repair; fall back to NACK
    kRetxLinger = 16,     ///< receiver: leave the retransmission channel
};

struct TimerId {
    TimerKind kind{};
    std::uint32_t arg = 0;  ///< a sequence number, or 0

    friend constexpr bool operator==(TimerId, TimerId) = default;
    friend constexpr auto operator<=>(TimerId, TimerId) = default;
};

/// Send `packet` point-to-point to node `to`.
struct SendUnicast {
    NodeId to;
    Packet packet;
};

/// Multicast scope: drivers map these onto TTLs (UDP) or tree pruning (sim).
enum class McastScope : std::uint8_t {
    kSite = 1,    ///< confined to the sender's site (local repair, discovery ring 1)
    kRegion = 2,  ///< intermediate discovery ring
    kGlobal = 3,  ///< whole group
};

/// Multicast `packet` to the group in the header, within `scope`.
struct SendMulticast {
    Packet packet;
    McastScope scope = McastScope::kGlobal;
};

/// Arm (or re-arm) a timer to fire at `deadline`.
struct StartTimer {
    TimerId id;
    TimePoint deadline;
};

/// Disarm a timer if armed; no-op otherwise.
struct CancelTimer {
    TimerId id;
};

/// Hand a data payload to the receiving application (receiver core only).
/// Delivery is in arrival order -- receiver-reliable multicast imposes no
/// ordering (Section 2: "message causality and ordering are strictly an
/// application-level concern").
struct DeliverData {
    SeqNum seq;
    Payload payload;  ///< shares the update's one buffer (common/payload.hpp)
    bool recovered = false;  ///< true when served from a log, not the live stream
};

/// Subscribe this endpoint to an additional multicast group (Section 7's
/// retransmission channel: receivers join it only while recovering).
struct JoinGroup {
    GroupId group;
};

/// Unsubscribe from a group joined with JoinGroup.
struct LeaveGroup {
    GroupId group;
};

/// Application-visible protocol notifications.
enum class NoticeKind : std::uint8_t {
    kLossDetected,       ///< receiver: gap discovered (arg = first missing seq)
    kRecoveryFailed,     ///< receiver: exhausted all logging servers for a seq
    kFreshnessLost,      ///< receiver: nothing heard for MaxIT
    kFreshnessRestored,  ///< receiver: traffic resumed after FreshnessLost
    kLoggerChanged,      ///< receiver: switched to a different logging server
    kEpochStarted,       ///< sender: new statistical-ack epoch opened
    kRemulticast,        ///< sender/logger: decided to re-multicast a packet
    kPrimaryFailover,    ///< sender: promoted a replica to primary
    kDesignatedAcker,    ///< logger: became a designated acker this epoch
    kCongestionSlowdown,  ///< sender: flow control raised the send spacing
                          ///< (arg = recommended spacing in microseconds)
    kCongestionCleared,   ///< sender: loss subsided, spacing back to zero
    kAckerOutage,         ///< sender: an epoch closed with zero volunteers;
                          ///< ACK coverage is dark until the re-solicit
                          ///< (arg = the epoch id)
    kFailoverExhausted,   ///< sender: every promotion candidate was tried
                          ///< and none answered; the source falls back to
                          ///< acting as its own primary (arg = replicas
                          ///< tried).  Terminal for this failover round --
                          ///< emitted alongside kPrimaryFailover{self}.
};

struct Notice {
    NoticeKind kind{};
    std::uint64_t arg = 0;  ///< kind-specific (sequence number, epoch, node id)
};

using Action = std::variant<SendUnicast, SendMulticast, StartTimer, CancelTimer,
                            DeliverData, Notice, JoinGroup, LeaveGroup>;

/// An action list lives in the caller's stack frame: the first four actions
/// are inline (a receiver's data packet makes two or three, the sender's send
/// four without statistical acks), and a longer list spills to the heap as a
/// vector would.  DESIGN.md "Action lists and payload buffers" says why the
/// lists are per call rather than one reused buffer per host.
using Actions = SmallVec<Action, 4>;

/// Append all of `src` to `dst` (helper for cores composing sub-engines).
inline void append(Actions& dst, Actions&& src) {
    for (auto& a : src) dst.push_back(std::move(a));
}

}  // namespace lbrm
