#include "sim/network.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "obs/trace.hpp"
#include "sim/sim_host.hpp"

namespace lbrm::sim {

namespace {

/// Multicast-tree cache key: (group id, sender id) packed into 64 bits.
[[nodiscard]] std::uint64_t tree_key(GroupId group, NodeId sender) {
    return (static_cast<std::uint64_t>(group.value()) << 32) | sender.value();
}

}  // namespace

namespace {
/// "sim.*" pull-gauge names registered by register_metrics(); ~Network
/// removes exactly this list (the registry can outlive the network).
constexpr const char* kSimGaugeNames[] = {
    "sim.cached_trees",     "sim.tree_cache_bytes",   "sim.routing_table_bytes",
    "sim.drops_queue",      "sim.drops_loss",         "sim.link_packets",
    "sim.link_bytes",       "sim.queue_pending",      "sim.events_processed",
    "sim.events_scheduled",
};
}  // namespace

Network::Network(Simulator& simulator, std::uint64_t seed, SimConfig config)
    : simulator_(simulator), seed_(seed),
      tree_cache_capacity_(config.tree_cache_capacity),
      metrics_(config.metrics ? config.metrics : std::make_shared<obs::Metrics>()) {
    register_metrics();
}

Network::~Network() {
    while (deliveries_ != nullptr) destroy(deliveries_);
    for (const char* name : kSimGaugeNames) metrics_->remove_gauge_fn(name);
}

void Network::register_metrics() {
    obs::Metrics& m = *metrics_;
    unicast_sends_ = &m.counter("sim.unicast_sends");
    multicast_sends_ = &m.counter("sim.multicast_sends");
    deliveries_made_ = &m.counter("sim.deliveries");
    tree_cache_hits_ = &m.counter("sim.tree_cache_hits");
    tree_builds_ = &m.counter("sim.tree_builds");
    batched_runs_ = &m.counter("sim.batched_delivery_runs");
    respec_loss_resets_ = &m.counter("network.respec_loss_resets");
    remote_emits_ = &m.counter("sim.remote_emits");
    remote_injects_ = &m.counter("sim.remote_injects");
    remote_drops_ = &m.counter("sim.remote_drops");

    // Pull gauges: evaluated at snapshot time only, so none of these touch
    // the hot path.  When several networks share one registry the most
    // recently constructed network's gauges win (find-or-create semantics).
    m.gauge_fn("sim.cached_trees",
               [this] { return static_cast<std::uint64_t>(cached_trees_); });
    m.gauge_fn("sim.tree_cache_bytes",
               [this] { return static_cast<std::uint64_t>(tree_cache_bytes()); });
    m.gauge_fn("sim.routing_table_bytes",
               [this] { return static_cast<std::uint64_t>(routing_table_bytes()); });
    m.gauge_fn("sim.drops_queue", [this] { return drop_breakdown().queue; });
    m.gauge_fn("sim.drops_loss", [this] { return drop_breakdown().loss; });
    m.gauge_fn("sim.link_packets", [this] {
        std::uint64_t total = 0;
        for (const Cable& c : cables_)
            for (const Link& l : c.dir) total += l.stats().packets;
        return total;
    });
    m.gauge_fn("sim.link_bytes", [this] {
        std::uint64_t total = 0;
        for (const Cable& c : cables_)
            for (const Link& l : c.dir) total += l.stats().bytes;
        return total;
    });
    m.gauge_fn("sim.queue_pending",
               [this] { return static_cast<std::uint64_t>(simulator_.pending()); });
    m.gauge_fn("sim.events_processed",
               [this] { return simulator_.events_processed(); });
    m.gauge_fn("sim.events_scheduled",
               [this] { return simulator_.events_scheduled(); });
}

Network::DropBreakdown Network::drop_breakdown() const {
    DropBreakdown out;
    for (const Cable& c : cables_) {
        for (const Link& l : c.dir) {
            out.queue += l.stats().drops_queue;
            out.loss += l.stats().drops_loss;
        }
    }
    return out;
}

void Network::track(DeliveryBase* d) {
    d->next = deliveries_;
    if (deliveries_ != nullptr) deliveries_->prev = d;
    deliveries_ = d;
}

void Network::destroy(DeliveryBase* d) {
    if (d->prev != nullptr) d->prev->next = d->next;
    if (d->next != nullptr) d->next->prev = d->prev;
    if (deliveries_ == d) deliveries_ = d->next;
    delete d;
}

std::size_t Network::deliveries_in_flight() const {
    std::size_t n = 0;
    for (const DeliveryBase* d = deliveries_; d != nullptr; d = d->next) ++n;
    return n;
}

void Network::reserve(std::size_t nodes, std::size_t directed_links) {
    node_site_id_.reserve(nodes);
    node_down_.reserve(nodes);
    node_host_.reserve(nodes);
    cable_head_.reserve(nodes);
    cable_tail_.reserve(nodes);
    end_next_.reserve(directed_links);  // two cable ends per cable
}

NodeId Network::add_node(SiteId site) {
    node_site_id_.push_back(site);
    node_down_.push_back(0);
    cable_head_.push_back(kNoIndex);
    cable_tail_.push_back(kNoIndex);
    finalized_ = false;
    return NodeId{static_cast<std::uint32_t>(node_site_id_.size())};
}

void Network::add_link(NodeId a, NodeId b, const LinkSpec& spec) {
    if (index(a) >= node_count() || index(b) >= node_count() || a == b)
        throw std::invalid_argument("Network::add_link: bad endpoints");
    if (Link* existing = link(a, b)) {
        // Cables are always installed in pairs, so a->b existing means the
        // whole cable exists: re-spec it in place.  Any installed loss
        // model silently resets to NoLoss (Cable::respec documents this);
        // surface the resets through network.respec_loss_resets so
        // lossy-rewire scenarios can detect them.
        const unsigned resets = existing->cable().respec(spec);
        if (resets != 0) respec_loss_resets_->inc(resets);
    } else {
        // Append the cable's two ends to their nodes' lists (add order).
        auto append = [this](std::size_t node, std::uint32_t e) {
            end_next_.push_back(kNoIndex);
            std::uint32_t& tail = cable_tail_[node];
            (tail == kNoIndex ? cable_head_[node] : end_next_[tail]) = e;
            tail = e;
        };
        const auto end = static_cast<std::uint32_t>(2 * cables_.size());
        cables_.emplace_back(a, b, spec);
        append(index(a), end);
        append(index(b), end + 1);
    }
    // A changed edge can invalidate any cached tree, so the tree cache
    // drops immediately -- not just at the next finalize().  In-flight
    // deliveries keep their pinned trees and complete on the pre-change
    // routes, as before.  The routing snapshot is *not* rebuilt here:
    // routing keeps reading the finalize-time tree until the required
    // finalize() -- stale routes, as in a network whose routing protocol
    // has not reconverged.
    invalidate_all_trees();
    finalized_ = false;
}

void Network::set_loss(NodeId a, NodeId b, std::unique_ptr<LossModel> model) {
    Link* l = link(a, b);
    if (l == nullptr) throw std::invalid_argument("Network::set_loss: no such link");
    l->set_loss_model(std::move(model));
}

void Network::set_node_down(NodeId node, bool down) {
    const std::size_t i = index(node);
    if ((node_down_[i] != 0) != down) invalidate_all_trees();
    node_down_[i] = down ? 1 : 0;
    // Routes are untouched: they are a pure function of the last finalize()
    // -- hop_toward reads the finalize-time snapshot, never the live flags -- so a
    // downed relay blackholes until re-finalize, like an unconverged
    // routing protocol.  Trees must drop because membership pruning *does*
    // consult liveness at build time.
}

std::uint32_t Network::find_link(NodeId a, NodeId b) const {
    const std::size_t ia = index(a);
    const std::size_t ib = index(b);
    if (ia >= node_count() || ib >= node_count() || ia == ib) return kNoIndex;
    // The cable a-b sits on both lists, so walk them in lockstep: whichever
    // reaches it first ends the walk, and the shorter list's end proves it
    // absent.  Add order puts a host's LAN cable and a site router's tail
    // circuit first on their lists.
    std::uint32_t ea = cable_head_[ia];
    std::uint32_t eb = cable_head_[ib];
    while (ea != kNoIndex && eb != kNoIndex) {
        if (far_node(ea) == ib) return ea;      // a -> b leaves from end ea
        if (far_node(eb) == ia) return eb ^ 1;  // ... from the other end of eb's cable
        ea = end_next_[ea];
        eb = end_next_[eb];
    }
    return kNoIndex;
}

Link* Network::link(NodeId a, NodeId b) {
    const std::uint32_t e = find_link(a, b);
    return e == kNoIndex ? nullptr : &directed_link(e);
}

const Link* Network::link(NodeId a, NodeId b) const {
    const std::uint32_t e = find_link(a, b);
    return e == kNoIndex ? nullptr : &directed_link(e);
}

// ---------------------------------------------------------------------------
// Routing: finalize() snapshots the tree the cables form (DESIGN.md "Tree
// routing").
// ---------------------------------------------------------------------------

void Network::finalize() {
    LBRM_TRACE_SPAN("finalize");
    invalidate_all_trees();
    build_routes();
    finalized_ = true;
}

void Network::build_routes() {
    const auto n = static_cast<std::uint32_t>(node_count());
    parent_end_.assign(n, kNoIndex);
    enter_.assign(n, kNoIndex);  // kNoIndex = not yet visited
    exit_.assign(n, 0);
    top_.assign(n, 0);
    // Iterative DFS over the cable lists, roots in index order.  `u` walks
    // its ends from `e`; descending saves (u, e) on `open`.  Any cable
    // reaching a visited node other than the parent closes a cycle.  A
    // child whose only cable leads back (every host) closes at once.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> open;
    std::uint32_t clock = 0;
    std::uint32_t closing = kNoIndex;  // a cable end that closes a cycle
    for (std::uint32_t root = 0; root < n && closing == kNoIndex; ++root) {
        if (enter_[root] != kNoIndex) continue;
        enter_[root] = clock++;
        top_[root] = root;
        std::uint32_t u = root;
        std::uint32_t e = cable_head_[root];
        while (true) {
            while (e != kNoIndex) {
                const std::uint32_t end = e;
                e = end_next_[end];
                if (end == parent_end_[u]) continue;
                const std::uint32_t v = far_node(end);
                if (enter_[v] != kNoIndex) {
                    closing = end;
                    break;
                }
                parent_end_[v] = end ^ 1;
                enter_[v] = clock++;
                top_[v] = node_down_[u] != 0 ? v : top_[u];
                const std::uint32_t first = cable_head_[v];
                if (first == (end ^ 1) && end_next_[first] == kNoIndex) {
                    exit_[v] = clock;
                    continue;
                }
                open.emplace_back(u, e);
                u = v;
                e = first;
            }
            if (closing != kNoIndex) break;
            exit_[u] = clock;
            if (open.empty()) break;
            std::tie(u, e) = open.back();
            open.pop_back();
        }
    }
    if (closing == kNoIndex) return;
    // Route nothing rather than over half a forest: every node becomes
    // its own one-node tree.
    parent_end_.assign(n, kNoIndex);
    for (std::uint32_t i = 0; i < n; ++i) {
        enter_[i] = i;
        exit_[i] = i + 1;
        top_[i] = i;
    }
    const Cable& c = cables_[closing >> 1];
    throw std::invalid_argument("Network::finalize: cable " + std::to_string(c.a.value()) +
                                "-" + std::to_string(c.b.value()) +
                                " closes a cycle; routing needs a tree or forest");
}

Network::Hop Network::hop_toward(std::uint32_t from, std::uint32_t to) {
    // No finalized_ check here: the traffic entry points enforce it, and
    // in-flight deliveries must keep forwarding on the (stale) snapshot
    // after a mid-run add_link.  Liveness comes from top_ alone: the path
    // is usable iff no node strictly inside it was down at finalize().
    if (from == to) return Hop{};
    if (below(to, from)) {
        // Descend to the child of `from` on the way to `to`.  The interior
        // is that child down to `to`'s parent, all up iff `to`'s segment
        // climbs to the child or higher.
        std::uint32_t child = to;
        for (std::uint32_t up = parent(to); up != from; up = parent(up)) child = up;
        if (enter_[top_[to]] > enter_[child]) return Hop{};
        return Hop{child, &directed_link(parent_end_[child] ^ 1)};
    }
    if (below(from, to)) {
        // `to` is an ancestor.  The interior is from's strict ancestors
        // below `to`: all up iff from's segment climbs to `to` or higher,
        // or stops just under `to` because `to` itself was down.
        const std::uint32_t t = top_[from];
        if (enter_[t] > enter_[to] && parent(t) != to) return Hop{};
    } else if (top_[from] != top_[to]) {
        // The path climbs to the lowest common ancestor and descends: its
        // interior is all up iff both ends climb to one segment top.  Ends
        // in different trees never share one.
        return Hop{};
    }
    return Hop{parent(from), &directed_link(parent_end_[from])};
}

std::uint64_t Network::routing_table_hash() {
    Fnv1a h;
    const auto n = static_cast<std::uint32_t>(node_count());
    for (std::uint32_t u = 0; u < n; ++u) {
        for (std::uint32_t v = 0; v < n; ++v) {
            const Hop hop = hop_toward(u, v);
            h.mix(hop.next);
            h.mix(hop.link != nullptr ? (static_cast<std::uint64_t>(hop.link->from().value())
                                         << 32) | hop.link->to().value()
                                      : 0);
        }
    }
    return h.h;
}

// ---------------------------------------------------------------------------
// Membership & tree-cache bookkeeping
// ---------------------------------------------------------------------------

Network::GroupRec* Network::find_group(GroupId group) {
    auto it = std::lower_bound(
        groups_.begin(), groups_.end(), group,
        [](const GroupRec& g, GroupId id) { return g.id.value() < id.value(); });
    return (it != groups_.end() && it->id == group) ? &*it : nullptr;
}

void Network::join(GroupId group, NodeId node) {
    auto it = std::lower_bound(
        groups_.begin(), groups_.end(), group,
        [](const GroupRec& g, GroupId id) { return g.id.value() < id.value(); });
    if (it == groups_.end() || it->id != group)
        it = groups_.insert(it, GroupRec{group, {}});
    std::vector<NodeId>& members = it->members;
    // Members stay sorted ascending (the former std::set iteration order).
    // Scenario wiring joins in ascending node order, so the common case is
    // an O(1) append.
    if (members.empty() || members.back() < node) {
        members.push_back(node);
    } else {
        auto mit = std::lower_bound(members.begin(), members.end(), node);
        if (mit == members.end() || *mit != node) members.insert(mit, node);
    }
    invalidate_trees_for(group);
}

void Network::leave(GroupId group, NodeId node) {
    if (GroupRec* g = find_group(group)) {
        auto mit = std::lower_bound(g->members.begin(), g->members.end(), node);
        if (mit != g->members.end() && *mit == node) g->members.erase(mit);
    }
    invalidate_trees_for(group);
}

void Network::invalidate_trees_for(GroupId group) {
    for (auto it = mcast_cache_.begin(); it != mcast_cache_.end();) {
        if ((it->first >> 32) == group.value()) {
            for (TreeSlot& slot : it->second) {
                if (slot.tree) {
                    tree_lru_.erase(slot.lru);
                    slot.tree.reset();
                    --cached_trees_;
                }
            }
            it = mcast_cache_.erase(it);
        } else {
            ++it;
        }
    }
}

void Network::invalidate_all_trees() {
    mcast_cache_.clear();
    tree_lru_.clear();
    cached_trees_ = 0;
}

void Network::enforce_tree_cache_bound() {
    if (tree_cache_capacity_ == 0) return;
    while (cached_trees_ > tree_cache_capacity_) {
        const TreeRef victim = tree_lru_.back();
        tree_lru_.pop_back();
        auto it = mcast_cache_.find(victim.key);
        auto& by_scope = it->second;
        by_scope[victim.scope].tree.reset();
        --cached_trees_;
        const bool empty = std::none_of(by_scope.begin(), by_scope.end(),
                                        [](const TreeSlot& s) { return bool(s.tree); });
        if (empty) mcast_cache_.erase(it);
    }
}

void Network::set_tree_cache_capacity(std::size_t capacity) {
    tree_cache_capacity_ = capacity;
    enforce_tree_cache_bound();
}

std::size_t Network::tree_cache_bytes() const {
    std::size_t total = 0;
    for (const auto& [key, by_scope] : mcast_cache_) {
        total += sizeof(key) + sizeof(by_scope) + 16;  // node + bucket overhead
        for (const TreeSlot& slot : by_scope)
            if (slot.tree) total += slot.tree->bytes() + sizeof(TreeRef) + 16;
    }
    return total;
}

SimHost& Network::attach_host(NodeId node) {
    const std::size_t i = index(node);
    if (node_host_.size() < node_count()) node_host_.resize(node_count(), nullptr);
    if (node_host_[i] == nullptr)
        node_host_[i] = &host_arena_.emplace_back(*this, node);
    return *node_host_[i];
}

SimHost* Network::host(NodeId node) {
    const std::size_t i = index(node);
    return i < node_host_.size() ? node_host_[i] : nullptr;
}

void Network::deliver_local(NodeId node, const Packet& packet) {
    const std::size_t i = index(node);
    if (node_down_[i] != 0) return;
    SimHost* h = i < node_host_.size() ? node_host_[i] : nullptr;
    if (h != nullptr) {
        deliveries_made_->inc();
        h->deliver(simulator_.now(), packet);
    }
}

// ---------------------------------------------------------------------------
// Unicast
// ---------------------------------------------------------------------------

struct Network::UnicastDelivery final : DeliveryBase {
    UnicastDelivery(Network& n, const Packet& p, std::uint32_t to_index)
        : DeliveryBase(n), packet(p), bytes(encoded_size(p)), type(p.type()),
          to(to_index), hops_left(static_cast<std::uint32_t>(n.node_count())) {}

    Packet packet;
    std::size_t bytes;
    PacketType type;
    std::uint32_t to;         ///< destination node index
    std::uint32_t hops_left;  ///< loop guard (see forward_unicast)
};

void Network::unicast(NodeId from, NodeId to, const Packet& packet) {
    if (node_down_[index(from)] != 0) return;
    if (from != to && !finalized_)
        throw std::logic_error("Network: finalize() before sending traffic");
    unicast_sends_->inc();
    auto* d = new UnicastDelivery(*this, packet, static_cast<std::uint32_t>(index(to)));
    track(d);
    if (from == to) {  // local delivery without touching the network
        simulator_.schedule_in(Duration::zero(), [d, at = d->to] {
            dispatch_arrival(d, at, ArrivalKind::kUnicast);
        });
        return;
    }
    forward_unicast(d, static_cast<std::uint32_t>(index(from)));
}

void Network::forward_unicast(UnicastDelivery* d, std::uint32_t at) {
    // Loop guard: any consistent table walk reaches its destination within
    // n-1 hops, but a mid-flight re-finalize can mix hops from the old and
    // new tables into a cycle, so the budget caps the walk (build_tree has
    // the same guard on its path collection).
    if (d->hops_left == 0) {
        destroy(d);
        return;
    }
    --d->hops_left;
    const Hop h = hop_toward(at, d->to);
    if (h.link == nullptr) {  // unreachable
        destroy(d);
        return;
    }
    auto arrival = h.link->transmit(seed_, simulator_.now(), d->bytes, d->type);
    if (tap_) tap_(simulator_.now(), *h.link, d->packet, arrival.has_value());
    if (!arrival) {
        destroy(d);
        return;
    }
    if (!owns_node(h.next)) {
        // The packet leaves this shard: the transmit above already did the
        // local half (link accounting, loss roll, tap -- the link belongs
        // to the sending node's shard), so ship the arrival with the key an
        // immediate schedule would have used and retire the local record.
        RemoteEvent ev;
        ev.at = *arrival;
        ev.key = simulator_.reserve_tiebreak();
        ev.kind = RemoteEvent::kUnicast;
        ev.target_shard = shard_of_node(h.next);
        ev.packet = d->packet;
        ev.to = d->to;
        ev.entry_node = h.next;
        ev.hops_left = d->hops_left;
        remote_emits_->inc();
        remote_sink_(std::move(ev));
        destroy(d);
        return;
    }
    schedule_arrival(*arrival, d, h.next, ArrivalKind::kUnicast);
}

void Network::unicast_arrive(UnicastDelivery* d, std::uint32_t at) {
    if (node_down_[at] != 0) {
        destroy(d);
        return;
    }
    if (at == d->to) {
        deliver_local(NodeId{at + 1}, d->packet);
        destroy(d);
        return;
    }
    forward_unicast(d, at);
}

// ---------------------------------------------------------------------------
// Multicast
// ---------------------------------------------------------------------------

struct Network::TreeDelivery final : DeliveryBase {
    TreeDelivery(Network& n, std::shared_ptr<const CachedTree> t, const Packet& p,
                 McastScope sc)
        : DeliveryBase(n), tree(std::move(t)), packet(p), bytes(encoded_size(p)),
          type(p.type()), scope(sc) {}

    std::shared_ptr<const CachedTree> tree;  ///< pins the tree across invalidation
    Packet packet;
    std::size_t bytes;
    PacketType type;
    McastScope scope;           ///< carried so remote segments can re-resolve
    std::uint32_t pending = 1;  ///< outstanding events + the sending frame
};

std::shared_ptr<const Network::CachedTree> Network::build_tree(
    NodeId from, const std::vector<NodeId>& members, McastScope scope) {
    LBRM_TRACE_SPAN("tree_build");
    std::chrono::steady_clock::time_point t0{};
    if constexpr (obs::kTelemetryEnabled) t0 = std::chrono::steady_clock::now();
    const std::size_t n = node_count();
    auto tree = std::make_shared<CachedTree>();

    // Scratch: node index -> tree entry slot, generation-marked.
    if (tree_mark_.size() != n) {
        tree_mark_.assign(n, 0);
        tree_slot_.assign(n, 0);
        tree_epoch_ = 0;
    }
    if (++tree_epoch_ == 0) {  // generation counter wrapped: hard reset
        std::fill(tree_mark_.begin(), tree_mark_.end(), 0u);
        tree_epoch_ = 1;
    }

    struct Entry {
        std::uint32_t node;
        std::uint8_t member = 0;
        std::uint8_t linked = 0;  ///< 1 once the edge from its parent is in
    };
    std::vector<Entry> entries;
    std::vector<std::vector<CachedTree::Child>> kids;  // per entry, insertion order
    auto slot_of = [&](std::uint32_t node) {
        if (tree_mark_[node] != tree_epoch_) {
            tree_mark_[node] = tree_epoch_;
            tree_slot_[node] = static_cast<std::uint32_t>(entries.size());
            entries.push_back(Entry{node});
            kids.emplace_back();
        }
        return tree_slot_[node];
    };

    const std::uint32_t from_index = static_cast<std::uint32_t>(index(from));
    slot_of(from_index);  // root = entry 0

    // Hop budget per scope: site scope is bounded by the site-containment
    // check below (a site never spans more hops than its own LAN); region
    // scope reaches adjacent sites through the backbone, up to 4 hops;
    // global scope is unbounded.
    const SiteId sender_site = site_of(from);
    const std::size_t hop_limit = scope == McastScope::kRegion
                                      ? 4u
                                      : std::numeric_limits<std::size_t>::max();

    std::vector<std::uint32_t> path;
    std::vector<Link*> path_links;
    for (NodeId member : members) {
        if (member == from || node_down_[index(member)] != 0) continue;
        if (scope == McastScope::kSite && site_of(member) != sender_site) continue;

        // Walk the route hop by hop; collect the node chain and its links.
        // The snapshot is a forest, so every walk ends.
        const std::uint32_t member_index = static_cast<std::uint32_t>(index(member));
        path.assign(1, from_index);
        path_links.clear();
        std::uint32_t at = from_index;
        bool reachable = true;
        while (at != member_index) {
            const Hop h = hop_toward(at, member_index);
            if (h.next == kNoIndex) {
                reachable = false;
                break;
            }
            path.push_back(h.next);
            path_links.push_back(h.link);
            at = h.next;
        }
        if (!reachable || path.size() - 1 > hop_limit) continue;
        if (scope == McastScope::kSite) {
            bool stays = true;
            for (std::uint32_t node : path)
                if (node_site_id_[node] != sender_site) stays = false;
            if (!stays) continue;
        }

        entries[slot_of(member_index)].member = 1;
        tree->any_members = true;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const std::uint32_t up = slot_of(path[i]);
            const std::uint32_t down = slot_of(path[i + 1]);
            // A tree path is unique, so the edges an earlier member's path
            // added are a prefix of this one: a child already linked hangs
            // under this same parent.
            if (entries[down].linked != 0) continue;
            entries[down].linked = 1;
            kids[up].push_back(CachedTree::Child{down, path_links[i]});
        }
    }

    // Flatten to CSR, preserving per-node child insertion order (the
    // delivery transmit order, and hence the RNG draw order).
    tree->nodes.reserve(entries.size());
    std::size_t child_count = 0;
    for (const auto& k : kids) child_count += k.size();
    tree->children.reserve(child_count);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        CachedTree::Node node;
        node.node = entries[i].node;
        node.member = entries[i].member;
        node.child_begin = static_cast<std::uint32_t>(tree->children.size());
        tree->children.insert(tree->children.end(), kids[i].begin(), kids[i].end());
        node.child_end = static_cast<std::uint32_t>(tree->children.size());
        tree->nodes.push_back(node);
    }

    tree_builds_->inc();
    if constexpr (obs::kTelemetryEnabled) {
        tree_build_ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    return tree;
}

std::shared_ptr<const Network::CachedTree> Network::resolve_tree(NodeId from,
                                                                 GroupId group,
                                                                 McastScope scope) {
    const GroupRec* g = find_group(group);
    if (g == nullptr) return nullptr;
    const std::uint64_t key = tree_key(group, from);
    auto& by_scope = mcast_cache_[key];
    TreeSlot& slot = by_scope[static_cast<std::size_t>(scope)];
    if (!slot.tree) {
        slot.tree = build_tree(from, g->members, scope);
        tree_lru_.push_front(TreeRef{key, static_cast<std::uint8_t>(scope)});
        slot.lru = tree_lru_.begin();
        ++cached_trees_;
        enforce_tree_cache_bound();  // never evicts the just-inserted head
    } else {
        tree_cache_hits_->inc();
        tree_lru_.splice(tree_lru_.begin(), tree_lru_, slot.lru);
    }
    return slot.tree;
}

void Network::multicast(NodeId from, const Packet& packet, McastScope scope) {
    if (!finalized_) throw std::logic_error("Network: finalize() before sending traffic");
    if (node_down_[index(from)] != 0) return;
    const std::shared_ptr<const CachedTree> tree =
        resolve_tree(from, packet.header.group, scope);
    if (!tree) return;
    multicast_sends_->inc();
    if (!tree->any_members) return;

    auto* d = new TreeDelivery(*this, tree, packet, scope);
    track(d);
    multicast_step(d, 0);  // entry 0 = the sender
    unref(d);  // drop the sending frame's reference
}

void Network::multicast_step(TreeDelivery* d, std::uint32_t at) {
    const CachedTree::Node& node = d->tree->nodes[at];
    // Per-(site, packet) delivery batching: consecutive children whose
    // copies all arrive at the same instant on idle links (the common case:
    // a site router fanning one packet out to its LAN receivers over
    // identical, idle links) share ONE event that replays the run in child
    // order, instead of one event each.  Bit-identity argument: the
    // per-child events would receive consecutive tiebreaks with nothing
    // interleaved (only this loop consumes tiebreaks, and busy/dropped
    // children flush the run first), so they would pop back to back at the
    // same instant; multicast_arrive_run processes the same children in the
    // same order at that instant.  Consuming one tiebreak instead of k
    // preserves every relative (time, seq) order, because tiebreaks are
    // compared only between equal timestamps and stay monotone.
    std::uint32_t run_begin = 0;
    std::uint32_t run_len = 0;
    TimePoint run_at = time_zero();
    auto schedule_segment = [&](TimePoint at, std::uint64_t key, std::uint32_t c0,
                                std::uint32_t n) {
        // One contiguous stretch of a run owned by this shard: holds one
        // pending reference per child, fires at the run's shared key.
        d->pending += n;
        if (n == 1) {
            const std::uint32_t hop = d->tree->children[c0].entry;
            simulator_.schedule_at_key(
                at, key, [d, hop] { dispatch_arrival(d, hop, ArrivalKind::kMulticast); });
        } else {
            batched_runs_->inc();
            simulator_.schedule_at_key(
                at, key, [d, c0, n] { d->net.multicast_arrive_run(d, c0, n); });
        }
    };
    auto flush_run = [&] {
        if (run_len == 0) return;
        // Runs form ownership-blind (so the key stream matches the
        // single-process run exactly -- ONE key per run), then split at
        // flush into maximal per-shard contiguous segments that all share
        // that key.  Same-instant segments with equal keys are
        // causally independent -- they arrive at distinct nodes, so their
        // follow-on transmits touch disjoint links and distinct actor key
        // streams -- which makes their relative pop order irrelevant.
        const std::uint64_t key = simulator_.reserve_tiebreak();
        const std::uint32_t run_end = run_begin + run_len;
        std::uint32_t seg = run_begin;
        while (seg != run_end) {
            const std::uint32_t shard =
                shard_of_node(d->tree->nodes[d->tree->children[seg].entry].node);
            std::uint32_t seg_end = seg + 1;
            while (seg_end != run_end &&
                   shard_of_node(d->tree->nodes[d->tree->children[seg_end].entry]
                                     .node) == shard)
                ++seg_end;
            if (shard == shard_self_ || node_shard_.empty())
                schedule_segment(run_at, key, seg, seg_end - seg);
            else
                emit_remote_mcast(d, shard, run_at, key, seg, seg_end - seg);
            seg = seg_end;
        }
        run_len = 0;
    };
    for (std::uint32_t c = node.child_begin; c != node.child_end; ++c) {
        const CachedTree::Child& child = d->tree->children[c];
        const bool busy = child.link->busy(simulator_.now());
        auto arrival = child.link->transmit(seed_, simulator_.now(), d->bytes, d->type);
        if (tap_) tap_(simulator_.now(), *child.link, d->packet, arrival.has_value());
        if (!arrival) {
            flush_run();  // a dropped child splits the contiguous run
            continue;
        }
        if (busy) {
            // A busy link splits the run: the child gets its own event,
            // which draws the next key, so the run is emitted first to keep
            // key consumption in child order.
            flush_run();
            const std::uint32_t target = d->tree->nodes[child.entry].node;
            if (!owns_node(target)) {
                emit_remote_mcast(d, shard_of_node(target), *arrival,
                                  simulator_.reserve_tiebreak(), c, 1);
                continue;
            }
            ++d->pending;
            schedule_arrival(*arrival, d, child.entry, ArrivalKind::kMulticast);
            continue;
        }
        if (run_len != 0 && *arrival == run_at) {
            ++run_len;
        } else {
            flush_run();
            run_begin = c;
            run_len = 1;
            run_at = *arrival;
        }
    }
    flush_run();
}

void Network::multicast_arrive_run(TreeDelivery* d, std::uint32_t child_begin,
                                   std::uint32_t count) {
    // Each child in the run holds one `pending` reference, so `d` (and the
    // tree it pins) outlives every iteration.
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t entry = d->tree->children[child_begin + i].entry;
        Simulator::ActorScope scope(simulator_, d->tree->nodes[entry].node);
        multicast_arrive(d, entry);
    }
}

void Network::multicast_arrive(TreeDelivery* d, std::uint32_t at) {
    const CachedTree::Node& node = d->tree->nodes[at];
    if (node_down_[node.node] == 0) {
        if (node.member) deliver_local(NodeId{node.node + 1}, d->packet);
        multicast_step(d, at);
    }
    unref(d);
}

void Network::unref(TreeDelivery* d) {
    if (--d->pending == 0) destroy(d);
}

void Network::schedule_arrival(TimePoint arrival, DeliveryBase* d, std::uint32_t hop,
                               ArrivalKind kind) {
    simulator_.schedule_at(arrival, [d, hop, kind] { dispatch_arrival(d, hop, kind); });
}

// Defined here, after both delivery types are complete.  The ActorScope
// makes the arriving node the actor for everything the arrival handler
// schedules.
void Network::dispatch_arrival(DeliveryBase* d, std::uint32_t hop, ArrivalKind kind) {
    if (kind == ArrivalKind::kMulticast) {
        auto* td = static_cast<TreeDelivery*>(d);
        Simulator::ActorScope scope(td->net.simulator_, td->tree->nodes[hop].node);
        td->net.multicast_arrive(td, hop);
    } else {
        auto* ud = static_cast<UnicastDelivery*>(d);
        Simulator::ActorScope scope(ud->net.simulator_, hop);
        ud->net.unicast_arrive(ud, hop);
    }
}

// ---------------------------------------------------------------------------
// Sharded execution (DESIGN.md "Sharded execution")
// ---------------------------------------------------------------------------

void Network::set_shard_view(std::uint32_t self, std::vector<std::uint32_t> node_shard,
                             RemoteSink sink) {
    shard_self_ = self;
    node_shard_ = std::move(node_shard);
    remote_sink_ = std::move(sink);
}

Duration Network::min_cut_propagation() const {
    Duration best = Duration::max();
    for (const Cable& c : cables_) {
        const std::size_t a = index(c.a), b = index(c.b);
        if (a >= node_shard_.size() || b >= node_shard_.size()) continue;
        if (node_shard_[a] == node_shard_[b]) continue;
        if (c.spec.propagation < best) best = c.spec.propagation;
    }
    return best;
}

void Network::emit_remote_mcast(TreeDelivery* d, std::uint32_t shard, TimePoint at,
                                std::uint64_t key, std::uint32_t child_begin,
                                std::uint32_t count) {
    RemoteEvent ev;
    ev.at = at;
    ev.key = key;
    ev.kind = RemoteEvent::kMulticastRun;
    ev.scope = static_cast<std::uint8_t>(d->scope);
    ev.target_shard = shard;
    ev.packet = d->packet;
    ev.tree_root = d->tree->nodes[0].node;
    ev.entry_begin = child_begin;
    ev.entry_count = count;
    remote_emits_->inc();
    remote_sink_(std::move(ev));
}

void Network::inject_remote(const RemoteEvent& ev) {
    // The event may come from another process: refuse a node index this
    // network does not have before anything is scheduled.
    const std::size_t n = node_count();
    if (ev.kind == RemoteEvent::kUnicast ? ev.to >= n || ev.entry_node >= n
                                         : ev.tree_root >= n)
        throw std::out_of_range("Network::inject_remote: node index past the network");
    remote_injects_->inc();
    if (ev.kind == RemoteEvent::kUnicast) {
        auto* d = new UnicastDelivery(*this, ev.packet, ev.to);
        d->hops_left = ev.hops_left;
        track(d);
        simulator_.schedule_at_key(ev.at, ev.key, [d, at = ev.entry_node] {
            dispatch_arrival(d, at, ArrivalKind::kUnicast);
        });
        return;
    }
    // Multicast segment: re-resolve the delivery tree from (group, root,
    // scope).  Each shard builds bit-identical trees from the shared
    // membership and finalize-time routing snapshot, so the child indices
    // the sending shard computed address the same children here.  A
    // membership or topology change while cross-shard traffic is in flight
    // can break that equivalence (the monolithic run keeps delivering on
    // the tree it captured at send time; we can only rebuild from current
    // state) -- such segments are *dropped*, exactly like packets caught in
    // flight by a routing change, and the receiver-reliable protocol
    // recovers them by NACK.  Fault-free A/B runs never hit this path
    // (sim.remote_drops stays zero; shard_test asserts it).  The range end
    // is a 64-bit sum, so no child range can wrap back inside the tree.
    const auto scope = static_cast<McastScope>(ev.scope);
    const std::shared_ptr<const CachedTree> tree =
        resolve_tree(NodeId{ev.tree_root + 1}, ev.packet.header.group, scope);
    if (!tree || tree->children.size() < std::uint64_t{ev.entry_begin} + ev.entry_count) {
        remote_drops_->inc();
        return;
    }
    auto* d = new TreeDelivery(*this, tree, ev.packet, scope);
    track(d);
    d->pending = ev.entry_count;  // no sending frame: one reference per child
    if (ev.entry_count == 1) {
        const std::uint32_t hop = tree->children[ev.entry_begin].entry;
        simulator_.schedule_at_key(ev.at, ev.key, [d, hop] {
            dispatch_arrival(d, hop, ArrivalKind::kMulticast);
        });
    } else {
        simulator_.schedule_at_key(
            ev.at, ev.key,
            [d, c0 = ev.entry_begin, n = ev.entry_count] {
                d->net.multicast_arrive_run(d, c0, n);
            });
    }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::size_t Network::routing_table_bytes() const {
    return (parent_end_.capacity() + enter_.capacity() + exit_.capacity() + top_.capacity()) *
           sizeof(std::uint32_t);
}

std::uint64_t Network::count_packets(PacketType type,
                                     const std::function<bool(const Link&)>& pred) const {
    std::uint64_t total = 0;
    for (const Cable& c : cables_)
        for (const Link& l : c.dir)
            if (!pred || pred(l)) total += l.stats().packets_of(type);
    return total;
}

void Network::reset_link_stats() {
    for (Cable& c : cables_)
        for (Link& l : c.dir) l.reset_stats();
}

}  // namespace lbrm::sim
