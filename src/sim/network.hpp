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
// arena behind a sparse node -> host pointer table.  Each node also keeps
// the list of cables that touch it, in add order; link(a, b) walks the two
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
// relays.  Routes read only that snapshot, so a later set_node_down, new
// cable or re-spec changes no route until the next finalize().
//
// Delivery trees are cached per (group, sender, scope) behind an optional
// LRU bound (SimConfig::tree_cache_capacity) and invalidated on membership
// or topology change; per-send state is a single heap record (DESIGN.md
// "Delivery records"), whose event closures fit std::function's
// small-buffer size.  Same-time multicast
// fan-out to idle links shares one event per contiguous run of tree
// children; an arrival queued behind a busy link is an ordinary one-shot
// event (DESIGN.md "Queued arrivals").
//
// Ordering is shard-invariant (DESIGN.md "Sharded execution"): events
// tie-break by (actor, per-actor sequence) and every lossy link rolls from
// its own RNG stream, so a run split into shard domains reproduces the
// single-process packet trace bit for bit.
//
// Protocol endpoints attach as SimHost objects (see sim_host.hpp); the
// network delivers decoded packets to them and provides their timers via
// the shared Simulator.
#pragma once

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
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace lbrm {
class ProtocolHost;
}

namespace lbrm::sim {

class SimHost;

class Network {
public:
    Network(Simulator& simulator, std::uint64_t seed, SimConfig config = {});

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;
    ~Network();

    // --- construction ----------------------------------------------------
    /// Pre-size internal storage for a known topology (large benches).
    void reserve(std::size_t nodes, std::size_t directed_links);

    /// Add a node; returns its id (ids are assigned 1, 2, 3, ...).
    NodeId add_node(SiteId site);

    /// Add a bidirectional cable: two directed links with the same spec.
    /// Re-adding an existing pair re-specs the cable in place (live traffic
    /// state survives, installed loss models reset -- see Cable::respec;
    /// the resets feed the `network.respec_loss_resets` counter) and, like a new
    /// link, drops every cached tree -- a changed edge may invalidate any
    /// of them -- and requires finalize() before new traffic.
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

    // --- traffic ------------------------------------------------------------
    void unicast(NodeId from, NodeId to, const Packet& packet);
    void multicast(NodeId from, const Packet& packet, McastScope scope);

    // --- introspection -------------------------------------------------------
    /// The directed link a -> b, or nullptr when absent (including self
    /// pairs and out-of-range ids).  Walks a's and b's cable lists in
    /// lockstep: O(min degree), one step for a host's LAN cable or a
    /// site's tail circuit.  Cables added after finalize() are found at
    /// once.
    [[nodiscard]] Link* link(NodeId a, NodeId b);
    [[nodiscard]] const Link* link(NodeId a, NodeId b) const;
    [[nodiscard]] SiteId site_of(NodeId node) const {
        return node_site_id_[index(node)];
    }
    [[nodiscard]] std::size_t node_count() const { return node_site_id_.size(); }
    [[nodiscard]] std::size_t link_count() const { return cables_.size() * 2; }
    [[nodiscard]] Simulator& simulator() { return simulator_; }

    /// The telemetry registry (created by the network unless SimConfig
    /// supplied one).  All "sim.*" rows live here; protocol hosts bind their
    /// "proto.*" / "host.*" rows to it at attach.
    [[nodiscard]] obs::Metrics& metrics() { return *metrics_; }

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

    /// Sum of a statistic across all links, filtered by a predicate.
    [[nodiscard]] std::uint64_t count_packets(
        PacketType type, const std::function<bool(const Link&)>& pred) const;

    /// Network-wide drop totals split by cause: queue overflow (kQueue) vs
    /// the link loss model (kLoss).  Summed over every link's LinkStats.
    struct DropBreakdown {
        std::uint64_t queue = 0;
        std::uint64_t loss = 0;
        [[nodiscard]] std::uint64_t total() const { return queue + loss; }
    };
    [[nodiscard]] DropBreakdown drop_breakdown() const;

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
    /// "No node index" sentinel for the routing tables.
    static constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;

    /// A resolved forwarding step: the next node index on the tree path
    /// and the link that reaches it.  {kNoIndex, nullptr} = unreachable.
    struct Hop {
        std::uint32_t next = kNoIndex;
        Link* link = nullptr;
    };

    /// A multicast delivery tree rooted at one sender, pruned to one
    /// scope.  Stored in CSR form over *tree* entries (not all n nodes), so
    /// a 10-member site-scope tree costs tens of entries, not O(n) vectors.
    /// Immutable once built; shared by all in-flight deliveries that were
    /// started while it was current.  Arrival events carry the entry index.
    struct CachedTree {
        struct Node {
            std::uint32_t node;         ///< global node index
            std::uint8_t member;        ///< 1 = deliver locally here
            std::uint32_t child_begin;  ///< [begin, end) into `children`
            std::uint32_t child_end;
        };
        struct Child {
            std::uint32_t entry;  ///< child's index into `nodes`
            Link* link;
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
    /// (+ a hop index), keeping them inside std::function's small buffer.
    struct DeliveryBase {
        explicit DeliveryBase(Network& n) : net(n) {}
        Network& net;
        DeliveryBase* prev = nullptr;
        DeliveryBase* next = nullptr;
        virtual ~DeliveryBase() = default;
    };
    struct UnicastDelivery;
    struct TreeDelivery;

    /// What an in-flight arrival is: enough to resume the delivery from a
    /// (delivery, hop, kind) triple, which keeps the one-shot event closure
    /// inside std::function's small buffer.  For unicast `hop` is the
    /// arriving node index; for multicast it is the arriving CachedTree
    /// entry index.
    enum class ArrivalKind : std::uint8_t { kUnicast = 0, kMulticast = 1 };
    static void dispatch_arrival(DeliveryBase* d, std::uint32_t hop, ArrivalKind kind);

    [[nodiscard]] std::size_t index(NodeId id) const { return id.value() - 1; }

    // --- routing ---------------------------------------------------------
    /// The DFS behind finalize(): fills parent_end_, enter_, exit_ and top_
    /// from the cable lists, or throws std::invalid_argument naming the
    /// cable that closes a cycle, after making every node its own
    /// one-node tree (so nothing routes).
    void build_routes();
    /// The directed link a -> b as a directed-link index (see cable_head_),
    /// or kNoIndex.
    [[nodiscard]] std::uint32_t find_link(NodeId a, NodeId b) const;
    /// The directed link with index `e` (see cable_head_).
    [[nodiscard]] Link& directed_link(std::uint32_t e) { return cables_[e >> 1].dir[e & 1]; }
    [[nodiscard]] const Link& directed_link(std::uint32_t e) const {
        return cables_[e >> 1].dir[e & 1];
    }
    /// Node index at the far side of cable end `e`.
    [[nodiscard]] std::uint32_t far_node(std::uint32_t e) const {
        const Cable& c = cables_[e >> 1];
        return static_cast<std::uint32_t>(index((e & 1) != 0 ? c.a : c.b));
    }
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

    /// Schedule the arrival of `d` at hop `hop` for time `arrival`: one
    /// one-shot event, whether or not the packet queued behind earlier
    /// traffic.
    void schedule_arrival(TimePoint arrival, DeliveryBase* d, std::uint32_t hop,
                          ArrivalKind kind);

    void forward_unicast(UnicastDelivery* d, std::uint32_t at);
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
    void multicast_arrive(TreeDelivery* d, std::uint32_t at);
    /// Resume a batched run: the `count` consecutive tree children starting
    /// at `child_begin` all arrive now; process them in child order, exactly
    /// as the per-child events would have popped back to back.
    void multicast_arrive_run(TreeDelivery* d, std::uint32_t child_begin,
                              std::uint32_t count);
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

    // --- cables -----------------------------------------------------------
    StableVector<Cable> cables_;  ///< creation order; routes and trees point into dir[]
    /// Per-node cable lists for link(a, b), in add order.  Cable c has two
    /// ends, 2c (its `a` node) and 2c + 1 (its `b` node); an end doubles as
    /// the directed-link index of the link leaving it (directed_link()).
    /// Node i's ends run from cable_head_[i] along end_next_ to
    /// cable_tail_[i]; kNoIndex ends a list.  Nothing is rebuilt at
    /// finalize(): 8 bytes per node plus 8 per cable, always current.
    std::vector<std::uint32_t> cable_head_;
    std::vector<std::uint32_t> cable_tail_;
    std::vector<std::uint32_t> end_next_;

    // --- hosts (cold; sparse side table over a by-value arena) ------------
    StableVector<SimHost> host_arena_;
    std::vector<SimHost*> node_host_;

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
    /// parent (kNoIndex at a root), so directed_link(e) climbs and
    /// directed_link(e ^ 1) descends.
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
    /// called once from the constructor.  ~Network removes the gauges (a
    /// registry SimConfig supplied may outlive this network).
    void register_metrics();
    std::shared_ptr<obs::Metrics> metrics_;
    obs::Counter* unicast_sends_;      ///< sim.unicast_sends
    obs::Counter* multicast_sends_;    ///< sim.multicast_sends
    obs::Counter* deliveries_made_;    ///< sim.deliveries (deliver_local hits)
    obs::Counter* tree_cache_hits_;    ///< sim.tree_cache_hits
    obs::Counter* tree_builds_;            ///< sim.tree_builds
    std::uint64_t tree_build_ns_ = 0;      ///< wall time; kept out of the registry
    obs::Counter* batched_runs_;       ///< sim.batched_delivery_runs (>=2 children)
    obs::Counter* respec_loss_resets_; ///< network.respec_loss_resets
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

}  // namespace lbrm::sim
