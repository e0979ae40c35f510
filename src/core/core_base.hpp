// CoreBase: the interface every sans-IO core implements.
//
// The LBRM sender, receiver and logger and the baseline comparators
// (src/baseline) all turn packets and timer expiries into Actions, so a
// host (runtime/protocol_host.hpp) holds any mix of them in one table and
// drives each through this interface.
#pragma once

#include "core/actions.hpp"
#include "obs/metrics.hpp"

namespace lbrm {

class CoreBase {
public:
    virtual ~CoreBase() = default;
    /// This core's own node id, the `self` its handlers are told.  Fixed
    /// for the core's lifetime: a host reads it once, at attach.
    [[nodiscard]] virtual NodeId self() const = 0;
    virtual Actions start(TimePoint now) = 0;
    virtual Actions on_packet(TimePoint now, const Packet& packet) = 0;
    virtual Actions on_timer(TimePoint now, TimerId id) = 0;
    /// Bind the family-aggregate telemetry block (obs/metrics.hpp); a core
    /// that keeps no counters ignores it.
    virtual void bind_metrics(const obs::ProtocolMetrics& /*metrics*/) {}

protected:
    CoreBase() = default;
    CoreBase(const CoreBase&) = default;
    CoreBase& operator=(const CoreBase&) = default;
    CoreBase(CoreBase&&) = default;
    CoreBase& operator=(CoreBase&&) = default;
};

}  // namespace lbrm
