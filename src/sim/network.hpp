// The simulated internetwork.
//
// Owns nodes, directed links, tree routing, multicast group membership and
// the per-hop packet transport.  Multicast follows a source-rooted tree
// with one copy per tree edge -- so the per-link statistics reflect true
// multicast economics (one packet on the shared tail circuit, not twenty).
// Scoped multicast (Section 2.2.1's TTL-limited repairs and discovery
// rings) prunes the tree: site scope never leaves the sender's site;
// region scope is hop-limited.
//
// Node storage is struct-of-arrays (see DESIGN.md "Scale engineering"): the
// hot fields (site, liveness) live in dense per-node vectors,
// and the cold protocol endpoints (SimHost) live by value in a chunked
// arena behind a sparse node -> host pointer table.  Cables are rows of
// flat arrays indexed by cable end, and a direction's state is a Link
// record made on first use (link.hpp).  Each node keeps the list
// of cables that touch it, in add order; link(a, b) walks the two
// endpoints' lists (DESIGN.md "Cable lists"), so no pair index exists.
// Group membership is sorted flat vectors (ascending node id -- the same
// iteration order std::set gave).
//
// Routing assumes what the paper's internetwork is, and what
// make_dis_topology builds: a tree, or a forest (DESIGN.md "Tree
// routing").  finalize() runs one DFS over the cable lists and keeps four
// 32-bit words per node -- the cable end toward its parent, its [enter,
// exit) DFS interval and the top of its liveness segment -- and throws on
// a cycle.  The next hop from u toward v is the child of u whose interval
// holds v, or else u's parent; a node down at the last finalize() never
// relays.  Routes read only that snapshot, so a later set_node_down or new
// cable changes no route until the next finalize().  A cable is specified
// once: add_link over an existing pair throws.
//
// Delivery trees are cached per (group, sender, scope) behind an optional
// LRU bound (SimConfig::tree_cache_capacity) and invalidated on membership
// or topology change; per-send state is a single heap record (DESIGN.md
// "Delivery records"), whose event closures fit std::function's
// small-buffer size.  Every multicast arrival is one event carrying a run:
// the consecutive tree children whose copies arrive at one instant, idle
// link or queued (DESIGN.md "Queued arrivals"); every unicast arrival is
// one event at the arriving node.
//
// Ordering is shard-invariant (DESIGN.md "Sharded execution"): events
// tie-break by (actor, per-actor sequence) and every lossy link rolls from
// its own RNG stream, so a run split into shard domains reproduces the
// single-process packet trace bit for bit.
//
// Protocol endpoints attach as SimHost objects (see sim_host.hpp); the
// network delivers decoded packets to them and provides their timers via
// the shared Simulator; a dormant receiver has none until a packet wakes it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/stable_vector.hpp"
#include "core/actions.hpp"
#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "packet/packet.hpp"
#include "runtime/protocol_host.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace lbrm::sim {

class SimHost;

class Network {
public:
    Network(Simulator& simulator, std::uint64_t seed, SimConfig config = {});

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;
    ~Network();

    // --- construction ----------------------------------------------------
    /// Pre-size every per-node and per-cable-end array for a known topology.
    void reserve(std::size_t nodes, std::size_t directed_links);

    /// Add a node; returns its id (ids are assigned 1, 2, 3, ...).
    NodeId add_node(SiteId site);

    /// Add a bidirectional cable: two directed links with the same spec.
    /// Drops every cached tree -- a new edge may invalidate any of them --
    /// and requires finalize() before new traffic.  Throws
    /// std::invalid_argument, changing nothing, on bad endpoints or when
    /// the cable exists in either orientation, and std::length_error past
    /// 65,536 distinct specs.
    void add_link(NodeId a, NodeId b, const LinkSpec& spec);

    /// Replace the loss model of the directed link a -> b.
    void set_loss(NodeId a, NodeId b, std::unique_ptr<LossModel> model);

    /// Mark a node dead/alive.  A dead node neither sends nor receives --
    /// models logger crashes for the Section 2.2.3 failover experiments --
    /// and, from the next finalize() on, no longer relays transit traffic
    /// (so re-finalizing after downing a router cuts the nodes behind it
    /// off).  Until then routes keep forwarding into it and packets die
    /// there, exactly as a real network blackholes until the routing
    /// protocol reconverges: routing reads only the finalize-time snapshot,
    /// so a down transition never changes routing until the next
    /// finalize().
    void set_node_down(NodeId node, bool down);

    /// Snapshot the routes.  Must be called after the last add_link and
    /// before any traffic; adding links later requires calling it again.
    /// Throws std::invalid_argument naming the cable that closes a cycle
    /// when the cables do not form a forest; the network then routes
    /// nothing and stays unfinalized.
    void finalize();

    // --- membership -------------------------------------------------------
    void join(GroupId group, NodeId node);
    void leave(GroupId group, NodeId node);

    // --- host attachment ---------------------------------------------------
    /// Create (once) and return the protocol host bound to `node`.
    /// The reference stays valid for the network's lifetime.
    SimHost& attach_host(NodeId node);
    [[nodiscard]] SimHost* host(NodeId node);
    /// Every attached host, in attach order.
    [[nodiscard]] StableVector<SimHost>& hosts() { return host_arena_; }
    [[nodiscard]] const StableVector<SimHost>& hosts() const { return host_arena_; }

    // --- dormant receivers (DESIGN.md "Memory engineering") ----------------
    /// Keep host-less `node` as a dormant receiver: two bits, and `record`
    /// (naming a logger), which its site's receivers share.  A packet
    /// reaching it counts in sim.deliveries, as at a host; the first that
    /// ProtocolHost::wakes() accepts wakes it.
    void add_dormant_receiver(NodeId node, const ProtocolHost::DormantRecord& record);
    [[nodiscard]] bool dormant(NodeId node) const {
        return index(node) < dormant_.size() && dormant_[index(node)];
    }
    [[nodiscard]] std::size_t dormant_count() const {
        return static_cast<std::size_t>(std::count(dormant_.begin(), dormant_.end(), true));
    }
    /// Attach the dormant `node`'s host and build its receiver there
    /// (ProtocolHost::add_woken_receiver); runs no actions.
    SimHost& wake(NodeId node);
    /// Start the dormant receivers at `now`, as start() starts eager cores:
    /// one event, keyed to the sweep actor, fires their idle watchdogs at
    /// their shared deadline (one template), in node order -- site by site,
    /// as make_dis_topology numbers receivers.
    void start_dormant(TimePoint now);

    // --- traffic ------------------------------------------------------------
    void unicast(NodeId from, NodeId to, const Packet& packet);
    void multicast(NodeId from, const Packet& packet, McastScope scope);

    // --- introspection -------------------------------------------------------
    /// The directed link a -> b, or nullptr when absent (including self
    /// pairs and out-of-range ids).  Walks a's and b's cable lists in
    /// lockstep: O(min degree), one step for a host's LAN cable or a
    /// site's tail circuit.  Cables added after finalize() are found at
    /// once.  A direction's first lookup makes its record, whose address is
    /// then fixed; that changes no count or route, so a const lookup may too.
    [[nodiscard]] Link* link(NodeId a, NodeId b);
    [[nodiscard]] const Link* link(NodeId a, NodeId b) const {
        return const_cast<Network*>(this)->link(a, b);
    }
    [[nodiscard]] SiteId site_of(NodeId node) const {
        return node_site_id_[index(node)];
    }
    [[nodiscard]] std::size_t node_count() const { return node_site_id_.size(); }
    [[nodiscard]] std::size_t link_count() const { return end_node_.size(); }
    [[nodiscard]] Simulator& simulator() { return simulator_; }

    /// The network's own telemetry registry.  All "sim.*" rows live here;
    /// protocol hosts bind their "proto.*" / "host.*" rows to it at attach.
    [[nodiscard]] obs::Metrics& metrics() { return metrics_; }

    /// Cached multicast delivery trees currently held (tests use this to
    /// observe cache hits, LRU eviction and invalidation).
    [[nodiscard]] std::size_t cached_tree_count() const { return cached_trees_; }
    /// Approximate heap bytes held by the cached trees (cache-bound sizing).
    [[nodiscard]] std::size_t tree_cache_bytes() const;
    /// Lifetime count of delivery-tree constructions (a view over the
    /// registry's sim.tree_builds counter) and the wall time they took (a
    /// plain member: wall time is nondeterministic, so it must never enter
    /// the registry -- snapshots of identical runs are byte-identical).
    /// Both read zero under LBRM_NO_TELEMETRY.
    [[nodiscard]] std::uint64_t tree_builds() const { return tree_builds_->value(); }
    [[nodiscard]] double tree_build_seconds() const {
        return static_cast<double>(tree_build_ns_) * 1e-9;
    }
    /// Re-bound the tree cache at runtime (evicts LRU down to the new cap).
    void set_tree_cache_capacity(std::size_t capacity);

    /// Bytes held by the routing snapshot: 16 per node after finalize().
    [[nodiscard]] std::size_t routing_table_bytes() const;

    /// FNV-1a digest of every routing answer: for each ordered node pair
    /// (by index), the next hop and the endpoints of the link reaching it,
    /// or kNoIndex and 0 when there is none.  Equal hashes mean every
    /// packet takes the same hops.  O(n^2): for small networks.
    [[nodiscard]] std::uint64_t routing_table_hash();

    /// Observation tap invoked for every packet put on any link (after the
    /// loss/queue decision, with `delivered` telling the outcome).
    using Tap = std::function<void(TimePoint, const Link&, const Packet&, bool delivered)>;
    void set_tap(Tap tap) { tap_ = std::move(tap); }

    /// Packets of `type` on the links `pred` accepts (null: the network total).
    [[nodiscard]] std::uint64_t count_packets(
        PacketType type, const std::function<bool(const Link&)>& pred) const;

    /// Network-wide drop totals split by cause: queue overflow (kQueue) vs
    /// the link loss model (kLoss), counted by every transmit.
    struct DropBreakdown {
        std::uint64_t queue = 0;
        std::uint64_t loss = 0;
        [[nodiscard]] std::uint64_t total() const { return queue + loss; }
    };
    [[nodiscard]] DropBreakdown drop_breakdown() const;

    /// Zero every link's tallies and the network-wide link totals.
    void reset_link_stats();

    /// Per-send delivery records still in flight (a walk of the intrusive
    /// list; tests check that every record is destroyed once traffic drains).
    [[nodiscard]] std::size_t deliveries_in_flight() const;

    // --- sharded execution (DESIGN.md "Sharded execution") ----------------
    /// A packet arrival crossing a shard boundary.  The sending shard did
    /// the transmit (link accounting, loss roll, tap) and reserved the
    /// event key; the owning shard replays the arrival at exactly
    /// (at, key), reproducing the heap position a single-process run would
    /// have used.  Multicast segments re-resolve their delivery tree from
    /// (packet group, tree_root, scope) -- each shard builds bit-identical
    /// trees from the shared membership and topology -- and cover the
    /// consecutive tree children [entry_begin, entry_begin + entry_count).
    struct RemoteEvent {
        static constexpr std::uint8_t kUnicast = 0;
        static constexpr std::uint8_t kMulticastRun = 1;
        TimePoint at{};
        std::uint64_t key = 0;
        std::uint8_t kind = kUnicast;
        std::uint8_t scope = 0;  ///< McastScope (multicast only)
        std::uint32_t target_shard = 0;
        Packet packet;
        std::uint32_t to = 0;           ///< unicast: destination node index
        std::uint32_t entry_node = 0;   ///< unicast: arriving node index
        std::uint32_t hops_left = 0;    ///< unicast: remaining loop budget
        std::uint32_t tree_root = 0;    ///< multicast: root node index
        std::uint32_t entry_begin = 0;  ///< multicast: first child index
        std::uint32_t entry_count = 0;  ///< multicast: children in the segment
    };
    using RemoteSink = std::function<void(RemoteEvent&&)>;

    /// Install this network's place in a shard plan: its own shard id, the
    /// owning shard of every node index, and the sink that carries
    /// boundary-crossing arrivals to the runner.  Without a view every node
    /// is owned (the single-process baseline).
    void set_shard_view(std::uint32_t self, std::vector<std::uint32_t> node_shard,
                        RemoteSink sink);
    /// (Re)install the boundary sink only -- the shard runner wires its
    /// outboxes after the scenario constructor has set the view.
    void set_remote_sink(RemoteSink sink) { remote_sink_ = std::move(sink); }

    /// Minimum propagation delay over cables whose endpoints live on
    /// different shards of this network's view -- the conservative
    /// lookahead of a windowed sharded run (every boundary-crossing arrival
    /// lands at least this far in the future of its transmit).
    /// Duration::max() when no cable is cut, or without a view.
    [[nodiscard]] Duration min_cut_propagation() const;
    [[nodiscard]] bool owns_node(std::size_t i) const {
        return node_shard_.empty() || node_shard_[i] == shard_self_;
    }
    [[nodiscard]] std::uint32_t shard_of_node(std::size_t i) const {
        return node_shard_.empty() ? 0 : node_shard_[i];
    }

    /// Replay a boundary-crossing arrival received from another shard.
    /// Pre: this shard owns the arrival node(s) and the event key was
    /// reserved on the sending shard.  Throws std::out_of_range, scheduling
    /// nothing, when a node index is past node_count(); a multicast segment
    /// whose children lie past the re-resolved tree is dropped and counted
    /// (sim.remote_drops).
    void inject_remote(const RemoteEvent& ev);

private:
    friend class Link;  // reads the cable rows, counts into the link totals
    /// "No node index" sentinel for the routing tables.
    static constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;

    /// A resolved forwarding step: the next node index on the tree path
    /// and the cable end its link leaves from; both kNoIndex = unreachable.
    struct Hop {
        std::uint32_t next = kNoIndex;
        std::uint32_t end = kNoIndex;
    };

    /// A multicast delivery tree rooted at one sender, pruned to one
    /// scope.  Stored in CSR form over *tree* entries (not all n nodes), so
    /// a 10-member site-scope tree costs tens of entries, not O(n) vectors.
    /// Immutable once built; shared by all in-flight deliveries that were
    /// started while it was current.  Arrival events carry a range of
    /// child indices.
    struct CachedTree {
        struct Node {
            std::uint32_t node;         ///< global node index
            std::uint8_t member;        ///< 1 = deliver locally here
            std::uint32_t child_begin;  ///< [begin, end) into `children`
            std::uint32_t child_end;
        };
        struct Child {
            std::uint32_t entry;  ///< child's index into `nodes`
            std::uint32_t end;    ///< the cable end its link leaves from
        };
        std::vector<Node> nodes;  ///< entry 0 = the sender (root)
        std::vector<Child> children;
        bool any_members = false;

        [[nodiscard]] std::size_t bytes() const {
            return sizeof(CachedTree) + nodes.capacity() * sizeof(Node) +
                   children.capacity() * sizeof(Child);
        }
    };

    /// Base for in-flight per-send delivery state.  Deliveries are owned by
    /// the network through an intrusive list so ~Network reclaims whatever
    /// the event queue never ran; event closures hold only a raw pointer
    /// and up to two indices, keeping them inside std::function's small
    /// buffer.
    struct DeliveryBase {
        explicit DeliveryBase(Network& n) : net(n) {}
        Network& net;
        DeliveryBase* prev = nullptr;
        DeliveryBase* next = nullptr;
        virtual ~DeliveryBase() = default;
    };
    struct UnicastDelivery;
    struct TreeDelivery;

    [[nodiscard]] std::size_t index(NodeId id) const { return id.value() - 1; }

    // --- routing ---------------------------------------------------------
    /// The DFS behind finalize(): fills parent_end_, enter_, exit_ and top_
    /// from the cable lists, or throws std::invalid_argument naming the
    /// cable that closes a cycle, after making every node its own
    /// one-node tree (so nothing routes).
    void build_routes();
    /// The directed link a -> b as the cable end it leaves from, or kNoIndex.
    [[nodiscard]] std::uint32_t find_link(NodeId a, NodeId b) const;
    /// The record of the direction leaving cable end `e`, made on first use.
    [[nodiscard]] Link& link_at(std::uint32_t e) {
        const std::uint32_t record = end_link_[e];
        return record != kNoIndex ? links_[record] : make_link(e);
    }
    [[nodiscard]] Link& make_link(std::uint32_t e);
    /// Transmit on cable end `e`'s direction at now; the tap sees the outcome.
    std::optional<TimePoint> transmit(std::uint32_t e, const Packet& packet, std::size_t bytes,
                                      PacketType type) {
        Link& l = link_at(e);
        const std::optional<TimePoint> arrival = l.transmit(simulator_.now(), bytes, type);
        if (tap_) tap_(simulator_.now(), l, packet, arrival.has_value());
        return arrival;
    }
    /// Node index at the far side of cable end `e`.
    [[nodiscard]] std::uint32_t far_node(std::uint32_t e) const { return end_node_[e ^ 1]; }
    /// Node index `i`'s parent in the snapshot.  Pre: `i` is not a root.
    [[nodiscard]] std::uint32_t parent(std::uint32_t i) const {
        return far_node(parent_end_[i]);
    }
    /// Whether node index `v` lies strictly inside `u`'s subtree.
    [[nodiscard]] bool below(std::uint32_t v, std::uint32_t u) const {
        return enter_[u] < enter_[v] && enter_[v] < exit_[u];
    }
    /// Next forwarding step from node index `from` toward `to`, read from
    /// the finalize-time snapshot: {kNoIndex, nullptr} when `to` lies in
    /// another tree or a node down at finalize() lies strictly inside the
    /// path (DESIGN.md "Tree routing").
    [[nodiscard]] Hop hop_toward(std::uint32_t from, std::uint32_t to);

    void track(DeliveryBase* d);
    void destroy(DeliveryBase* d);

    void deliver_local(NodeId node, const Packet& packet);

    void forward_unicast(UnicastDelivery* d, std::uint32_t at);
    /// The unicast arrival event at node index `at`, scoped to that node.
    void unicast_arrive(UnicastDelivery* d, std::uint32_t at);

    [[nodiscard]] std::shared_ptr<const CachedTree> build_tree(
        NodeId from, const std::vector<NodeId>& members, McastScope scope);
    /// Find-or-build the cached (group, sender, scope) delivery tree --
    /// the shared lookup of multicast() and inject_remote().  Null when the
    /// group does not exist.
    [[nodiscard]] std::shared_ptr<const CachedTree> resolve_tree(NodeId from,
                                                                 GroupId group,
                                                                 McastScope scope);
    void invalidate_trees_for(GroupId group);
    void invalidate_all_trees();
    void enforce_tree_cache_bound();
    void multicast_step(TreeDelivery* d, std::uint32_t at);
    /// The multicast arrival event: the `count` consecutive tree children
    /// starting at `child_begin` all arrive now; each, in child order and
    /// scoped to its node, delivers locally and forwards.
    void multicast_arrive(TreeDelivery* d, std::uint32_t child_begin, std::uint32_t count);
    void unref(TreeDelivery* d);

    /// Hand a multicast segment owned by another shard to the runner.
    void emit_remote_mcast(TreeDelivery* d, std::uint32_t shard, TimePoint at,
                           std::uint64_t key, std::uint32_t child_begin,
                           std::uint32_t count);

    Simulator& simulator_;
    std::uint64_t seed_;  ///< construction seed: every link's loss-stream seed

    // --- nodes (struct-of-arrays; hot fields only) ------------------------
    std::vector<SiteId> node_site_id_;
    /// Live liveness, consulted at delivery time.  Routing reads the
    /// finalize-time top_ snapshot instead (see set_node_down).
    std::vector<std::uint8_t> node_down_;

    // --- cables (rows of per-end arrays, in add order) --------------------
    /// Cable c has two ends, 2c (its `a` node) and 2c + 1 (its `b` node);
    /// an end doubles as the index of the direction leaving it.
    std::vector<std::uint32_t> end_node_;  ///< node index at each end
    std::vector<std::uint16_t> cable_spec_;  ///< per cable: its row of specs_
    std::vector<LinkSpec> specs_;  ///< the distinct specs, in first-use order
    /// Per end: its direction's record in links_, kNoIndex until made.
    std::vector<std::uint32_t> end_link_;
    StableVector<Link> links_;  ///< direction records; addresses never move
    /// Network-wide link totals, counted by every transmit beside each
    /// record's own tallies and zeroed by reset_link_stats().
    std::array<std::uint64_t, kPacketTypeSlots> type_packets_{};
    std::uint64_t link_bytes_ = 0, drops_queue_ = 0, drops_loss_ = 0;
    /// Per-node cable lists for link(a, b), in add order.  Node i's ends
    /// run from cable_head_[i] along end_next_ to cable_tail_[i]; kNoIndex
    /// ends a list.  Nothing is rebuilt at finalize(): 8 bytes per node
    /// plus 8 per cable, always current.
    std::vector<std::uint32_t> cable_head_;
    std::vector<std::uint32_t> cable_tail_;
    std::vector<std::uint32_t> end_next_;

    // --- hosts (cold; sparse side table over a by-value arena) ------------
    obs::Metrics metrics_;  ///< outlives the hosts, whose cores hold handles into it
    StableVector<SimHost> host_arena_;
    std::vector<SimHost*> node_host_;

    // --- dormant receivers (no host: two bits a node, one record a site) --
    std::vector<bool> dormant_;  ///< per node index; sized at the first add
    std::vector<bool> fresh_;    ///< no idle watchdog has fired yet
    /// Indexed by site id (make_dis_topology numbers sites from 1).
    std::vector<ProtocolHost::DormantRecord> dormant_sites_;
    [[nodiscard]] const ProtocolHost::DormantRecord& dormant_record(std::size_t i) const {
        return dormant_sites_[node_site_id_[i].value()];
    }
    std::optional<TimePoint> dormant_deadline_;  ///< the idle deadline start_dormant() set

    // --- membership -------------------------------------------------------
    /// Sorted by group id; members sorted ascending (== the iteration order
    /// the former std::set gave, so delivery trees are unchanged).
    struct GroupRec {
        GroupId id;
        std::vector<NodeId> members;
    };
    std::vector<GroupRec> groups_;
    [[nodiscard]] GroupRec* find_group(GroupId group);

    // --- tree routing (finalize-time snapshot; DESIGN.md "Tree routing") ---
    /// Per node: the cable end at the node whose cable leads to its DFS
    /// parent (kNoIndex at a root), so end e climbs and e ^ 1 descends.
    std::vector<std::uint32_t> parent_end_;
    /// Per node: its DFS interval [enter, exit); v is in u's subtree iff
    /// enter_[u] <= enter_[v] < exit_[u].
    std::vector<std::uint32_t> enter_;
    std::vector<std::uint32_t> exit_;
    /// Per node: the top of its liveness segment, the highest
    /// ancestor-or-self t such that every strict ancestor of the node up
    /// to t was up at finalize().  The only liveness routing reads, so a
    /// later set_node_down moves no route.
    std::vector<std::uint32_t> top_;

    // --- multicast tree cache --------------------------------------------
    /// Key packs (group << 32 | sender id); the array is indexed by
    /// McastScope.  Invalidated on join/leave (that group), set_node_down,
    /// add_link and finalize (all groups); LRU-evicted past
    /// tree_cache_capacity_ (0 = unbounded).
    struct TreeRef {
        std::uint64_t key;
        std::uint8_t scope;
    };
    struct TreeSlot {
        std::shared_ptr<const CachedTree> tree;
        std::list<TreeRef>::iterator lru;  ///< valid only while `tree` is set
    };
    std::unordered_map<std::uint64_t, std::array<TreeSlot, 4>> mcast_cache_;
    std::list<TreeRef> tree_lru_;  ///< most-recently-used first
    std::size_t tree_cache_capacity_;
    std::size_t cached_trees_ = 0;

    /// build_tree scratch: node -> tree entry slot, generation-marked so a
    /// build never pays an O(n) clear.
    std::vector<std::uint32_t> tree_mark_;
    std::vector<std::uint32_t> tree_slot_;
    std::uint32_t tree_epoch_ = 0;

    // --- telemetry (observation-only; never read by simulation logic) -----
    /// Resolve every counter handle and register the "sim.*" pull gauges;
    /// called once from the constructor.
    void register_metrics();
    obs::Counter* unicast_sends_;      ///< sim.unicast_sends
    obs::Counter* multicast_sends_;    ///< sim.multicast_sends
    obs::Counter* deliveries_made_;    ///< sim.deliveries (deliver_local hits)
    obs::Counter* tree_cache_hits_;    ///< sim.tree_cache_hits
    obs::Counter* tree_builds_;            ///< sim.tree_builds
    std::uint64_t tree_build_ns_ = 0;      ///< wall time; kept out of the registry
    obs::Counter* batched_runs_;       ///< sim.batched_delivery_runs (>=2 children)
    obs::Counter* remote_emits_;       ///< sim.remote_emits (boundary crossings out)
    obs::Counter* remote_injects_;     ///< sim.remote_injects (boundary crossings in)
    obs::Counter* remote_drops_;       ///< sim.remote_drops (stale-tree segments)

    DeliveryBase* deliveries_ = nullptr;  ///< intrusive list of in-flight sends
    bool finalized_ = false;
    Tap tap_;

    // --- shard view (empty node_shard_ = every node owned) ----------------
    std::uint32_t shard_self_ = 0;
    std::vector<std::uint32_t> node_shard_;
    RemoteSink remote_sink_;
};

inline NodeId Link::from() const { return NodeId{net_->end_node_[end_] + 1}; }
inline NodeId Link::to() const { return NodeId{net_->far_node(end_) + 1}; }
inline LinkSpec Link::spec() const { return net_->specs_[net_->cable_spec_[end_ >> 1]]; }

inline std::optional<TimePoint> Link::transmit(TimePoint now, std::size_t bytes, PacketType type) {
    Network& net = *net_;
    const LinkSpec s = spec();
    TimePoint depart = now;
    if (s.bandwidth_bps > 0.0) {
        const Duration serialization = secs(static_cast<double>(bytes) * 8.0 / s.bandwidth_bps);
        const TimePoint start = busy_until_ > now ? busy_until_ : now;
        if (s.max_queue_delay != Duration::zero() && start - now > s.max_queue_delay) {
            ++net.drops_queue_;
            return std::nullopt;  // never entered the wire: no loss roll
        }
        depart = start + serialization;
        busy_until_ = depart;  // lost packets still burn wire time
    }

    if (has_loss_model() && lost(now)) {
        ++net.drops_loss_;
        return std::nullopt;
    }

    ++net.type_packets_[static_cast<std::uint8_t>(type)];
    net.link_bytes_ += bytes;
    count(type);
    return depart + s.propagation;
}

}  // namespace lbrm::sim
