// Terrain database replicated over LBRM (the paper's "distributed cache
// update problem", Section 1).
//
// The authoritative database lives at the simulation host that owns the
// terrain (one LBRM source); every participant holds a replica fed by the
// group's receiver.  An update ("the bridge is destroyed") is one LBRM data
// packet; replicas apply updates idempotently by version and report each
// entity's view skew.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/time.hpp"
#include "dis/entity.hpp"

namespace lbrm::dis {

/// The owner's database: mutates entities, producing wire payloads to
/// multicast via a SenderCore / DisScenario / UdpEndpoint.
class TerrainAuthority {
public:
    /// Create or replace an entity; returns the payload to multicast.
    std::vector<std::uint8_t> set_status(EntityId id, std::string status) {
        TerrainState& entity = entities_[id];
        entity.id = id;
        entity.status = std::move(status);
        ++entity.version;
        return entity.encode();
    }

    [[nodiscard]] const TerrainState* find(EntityId id) const {
        auto it = entities_.find(id);
        return it == entities_.end() ? nullptr : &it->second;
    }

    [[nodiscard]] std::size_t size() const { return entities_.size(); }

private:
    std::map<EntityId, TerrainState> entities_;
};

/// A participant's replica: apply every delivered LBRM payload.
class TerrainReplica {
public:
    /// Apply one delivered payload.  Returns false for undecodable or
    /// stale (version <= current) updates; both are safely ignored --
    /// receiver-reliable delivery is unordered, so stale versions can
    /// legitimately arrive after newer ones (e.g. a late retransmission).
    bool apply(std::span<const std::uint8_t> payload, TimePoint now) {
        auto update = TerrainState::decode(payload);
        if (!update) return false;
        TerrainState& current = entities_[update->id];
        if (current.version >= update->version && current.version != 0) return false;
        current = std::move(*update);
        applied_at_[current.id] = now;
        return true;
    }

    [[nodiscard]] const TerrainState* find(EntityId id) const {
        auto it = entities_.find(id);
        return it == entities_.end() ? nullptr : &it->second;
    }

    /// When this replica last changed its view of `id`.
    [[nodiscard]] std::optional<TimePoint> applied_at(EntityId id) const {
        auto it = applied_at_.find(id);
        if (it == applied_at_.end()) return std::nullopt;
        return it->second;
    }

    /// True when the replica agrees with the authority on `id`.
    [[nodiscard]] bool agrees_with(const TerrainAuthority& authority, EntityId id) const {
        const TerrainState* mine = find(id);
        const TerrainState* theirs = authority.find(id);
        if (mine == nullptr || theirs == nullptr) return mine == theirs;
        return *mine == *theirs;
    }

    [[nodiscard]] std::size_t size() const { return entities_.size(); }

private:
    std::map<EntityId, TerrainState> entities_;
    std::map<EntityId, TimePoint> applied_at_;
};

}  // namespace lbrm::dis
