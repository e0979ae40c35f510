// Driver-side service interfaces.
//
// A driver -- the discrete-event simulator or the epoll/UDP reactor --
// implements these two interfaces; ProtocolHost uses them to execute the
// Actions emitted by the sans-IO cores and hands deliveries and notices to
// AppHandlers.  Cores themselves never see these types.
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
/// TimerId) pairs so independent cores on one host never collide; arming an
/// armed key replaces its deadline.
class TimerService {
public:
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

/// Type-erased sans-IO core, for protocols beyond the built-in LBRM trio
/// (the baseline comparators implement this).
class CoreBase {
public:
    virtual ~CoreBase() = default;
    /// This core's own node id, the `self` its handlers are told.
    [[nodiscard]] virtual NodeId self() const = 0;
    virtual Actions start(TimePoint now) = 0;
    virtual Actions on_packet(TimePoint now, const Packet& packet) = 0;
    virtual Actions on_timer(TimePoint now, TimerId id) = 0;
};

}  // namespace lbrm
