// Driver-side service interfaces and application hooks.
//
// A driver -- the discrete-event simulator or the epoll/UDP reactor --
// implements NetworkService and TimerService; ProtocolHost uses them to
// execute the Actions its cores (core/core_base.hpp) emit, and hands
// deliveries and notices to AppHandlers.  Cores themselves never see these
// types.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/actions.hpp"
#include "packet/packet.hpp"

namespace lbrm {

/// Transmits packets on behalf of one host.
class NetworkService {
public:
    virtual ~NetworkService() = default;
    virtual void send_unicast(NodeId to, const Packet& packet) = 0;
    virtual void send_multicast(const Packet& packet, McastScope scope) = 0;
    /// Dynamic group membership (Section 7 retransmission channel).
    virtual void join_group(GroupId group) = 0;
    virtual void leave_group(GroupId group) = 0;
};

/// Arms and cancels timers on behalf of one host.  Keys are (core tag,
/// TimerId) pairs, a core's tag being its index in the host's table of
/// cores, so independent cores on one host never collide; arming an armed
/// key replaces its deadline.
class TimerService {
public:
    /// Core tags stay below 2^24, so a driver can pack a tag and a
    /// TimerKind into 32 bits.
    static constexpr std::uint32_t kTagLimit = 1u << 24;

    virtual ~TimerService() = default;
    virtual void arm(std::uint32_t core_tag, TimerId id, TimePoint deadline) = 0;
    virtual void cancel(std::uint32_t core_tag, TimerId id) = 0;
};

/// Application-side hooks, which any number of cores may share: every call
/// names the reporting core's own node id as `self`.
struct AppHandlers {
    /// Data delivery (receiver cores).
    std::function<void(TimePoint, NodeId self, const DeliverData&)> on_data;
    /// Protocol notifications (any core).
    std::function<void(TimePoint, NodeId self, const Notice&)> on_notice;
};
/// How hosts hold handlers: shared, immutable, null for none.
using SharedHandlers = std::shared_ptr<const AppHandlers>;

}  // namespace lbrm
