// The simulated internetwork.
//
// Owns nodes, directed links, shortest-path routing, multicast group
// membership and the per-hop packet transport.  Multicast follows a
// source-rooted shortest-path tree with one copy per tree edge -- so the
// per-link statistics reflect true multicast economics (one packet on the
// shared tail circuit, not twenty).  Scoped multicast (Section 2.2.1's
// TTL-limited repairs and discovery rings) prunes the tree: site scope never
// leaves the sender's site; region scope is hop-limited.
//
// Node storage is struct-of-arrays (see DESIGN.md "Scale engineering"): the
// hot routing fields (site, router flag, liveness) live in dense per-node
// vectors, adjacency is a CSR snapshot that finalize() counting-sorts
// straight out of the cables, and the cold protocol endpoints (SimHost)
// live by value in a chunked arena behind a sparse node -> host pointer
// table.  Group membership is sorted flat vectors (ascending node id -- the
// same iteration order std::set gave).
//
// Routing is hierarchical (see DESIGN.md "Hierarchical routing"), mirroring
// the paper's two-level site/backbone topology: per-site intra-site
// shortest-path tables compose with an inter-site backbone table over the
// border nodes, for O(sites^2 + sum site_size^2) memory instead of flat
// O(n^2) matrices.  Every next hop is composed from those tables on demand:
// one site row, one backbone cell and one border row per candidate pair.
//
// finalize() builds only the border rows and the backbone; every other
// site-table row materialises on first touch.  Each row is a pure function
// of the adjacency CSR and liveness snapshot taken at finalize(), so build
// *time* can never change a route (a lazily built row never sees a
// post-finalize set_node_down or add_link).
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
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/pool.hpp"
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
    NodeId add_node(SiteId site, bool is_router = false);

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
    /// (so re-finalizing after downing a router routes around it).  Until
    /// then routes keep forwarding into it and packets die there, exactly
    /// as a real network blackholes until the routing protocol reconverges:
    /// routing reads only finalize-time state (every site-table row -- even
    /// one built after the transition -- reads the route_down_ snapshot;
    /// hop_toward reads border_down_), so a down transition never changes
    /// routing until the next finalize().
    void set_node_down(NodeId node, bool down);

    /// Compute routing tables.  Must be called after the last add_link and
    /// before any traffic; adding links later requires calling it again.
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
    /// pairs and out-of-range ids).  O(1) via the endpoint-pair index.
    [[nodiscard]] Link* link(NodeId a, NodeId b);
    [[nodiscard]] const Link* link(NodeId a, NodeId b) const;
    [[nodiscard]] SiteId site_of(NodeId node) const {
        return node_site_id_[index(node)];
    }
    [[nodiscard]] bool is_router(NodeId node) const {
        return node_is_router_[index(node)] != 0;
    }
    [[nodiscard]] std::size_t node_count() const { return node_site_id_.size(); }
    [[nodiscard]] std::size_t link_count() const { return cables_.size() * 2; }
    [[nodiscard]] Simulator& simulator() { return simulator_; }
    /// Pool backing per-host timer tables (SimHost alloc/free path).
    [[nodiscard]] BlockPool& timer_pool() { return host_pool_; }

    /// The telemetry registry (created by the network unless SimConfig
    /// supplied one).  All "sim.*" rows live here; protocol hosts bind their
    /// "proto.*" / "host.*" rows to it at attach.
    [[nodiscard]] obs::Metrics& metrics() { return *metrics_; }
    /// Shared ownership, for exporters that outlive the network.
    [[nodiscard]] std::shared_ptr<obs::Metrics> metrics_ptr() const { return metrics_; }

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

    /// Bytes held by the routing tables: site/backbone tables (materialised
    /// rows only).
    [[nodiscard]] std::size_t routing_table_bytes() const;
    /// Site-table rows currently materialised (the border rows after
    /// finalize(); grows on demand as traffic touches the rest).
    [[nodiscard]] std::size_t site_rows_built() const { return rows_built_; }

    /// FNV-1a digest of the routing tables: every site row (dist, next hop,
    /// link endpoints), border set and backbone entry.  Materialises every
    /// row first, so equal hashes mean bit-identical tables.
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
    /// different shards -- the conservative lookahead of a windowed sharded
    /// run (every boundary-crossing arrival lands at least this far in the
    /// future of its transmit).  Duration::max() when no cable is cut.
    [[nodiscard]] Duration min_cut_propagation(
        const std::vector<std::uint32_t>& node_shard) const;
    [[nodiscard]] bool owns_node(std::size_t i) const {
        return node_shard_.empty() || node_shard_[i] == shard_self_;
    }
    [[nodiscard]] std::uint32_t shard_of_node(std::size_t i) const {
        return node_shard_.empty() ? 0 : node_shard_[i];
    }

    /// Replay a boundary-crossing arrival received from another shard.
    /// Pre: this shard owns the arrival node(s) and the event key was
    /// reserved on the sending shard.
    void inject_remote(const RemoteEvent& ev);

private:
    /// "No node index" sentinel for the routing tables.
    static constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;

    /// A resolved forwarding step: the next node index on the shortest path
    /// and the link that reaches it.  {kNoIndex, nullptr} = unreachable.
    struct Hop {
        std::uint32_t next = kNoIndex;
        Link* link = nullptr;
    };

    /// One cell of a per-site routing row: distance, first hop (global node
    /// index, so descent never translates) and the link reaching it.
    struct RowCell {
        std::int64_t dist;
        std::uint32_t next;
        Link* link;
    };

    /// Per-site routing table: all-pairs shortest paths over the site's own
    /// subgraph, plus the site's border nodes (nodes with at least one
    /// inter-site link).  Rows are one slab each, so only the rows traffic
    /// touches ever materialise.
    struct SiteTable {
        std::vector<std::uint32_t> nodes;    ///< global node indices, in site order
        std::vector<std::uint32_t> borders;  ///< global node indices, ascending
        std::vector<std::unique_ptr<RowCell[]>> rows;  ///< size() slots; null = unbuilt
        [[nodiscard]] std::size_t size() const { return nodes.size(); }
    };

    /// A multicast shortest-path tree rooted at one sender, pruned to one
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

    /// Dijkstra scratch reused across row builds.
    struct DijkstraScratch {
        std::vector<std::int64_t> dist;
        std::vector<std::uint32_t> first_hop;
        std::vector<Link*> first_link;
        std::priority_queue<std::pair<std::int64_t, std::uint32_t>,
                            std::vector<std::pair<std::int64_t, std::uint32_t>>,
                            std::greater<>>
            pq;
    };

    // --- routing ---------------------------------------------------------
    /// Counting-sort the cables into the CSR adjacency snapshot.  Routing
    /// reads only the snapshot, so rows built after a post-finalize
    /// add_link still see the finalize-time adjacency (stale-table
    /// semantics, as if every row had been built at finalize()).
    void build_adjacency();
    [[nodiscard]] Link* find_link(std::uint64_t key) const;
    void build_hierarchical_routes();
    /// Build one site-table row (all shortest paths out of local index
    /// `src_local` within site `site`).  Pure function of the CSR snapshot
    /// and route_down_; writes only rows[src_local].
    void build_site_row(std::uint32_t site, std::uint32_t src_local);
    void ensure_row(std::uint32_t site, std::uint32_t local) {
        if (!site_tables_[site].rows[local]) build_site_row(site, local);
    }
    void build_backbone();

    /// Next forwarding step from node index `from` toward `to`: the
    /// intra-site candidate vs the best (exit border, entry border) pair
    /// through the backbone.
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
    std::vector<std::uint8_t> node_is_router_;
    /// Live liveness, consulted at delivery time.  Routing reads the
    /// route_down_ snapshot instead (see set_node_down).
    std::vector<std::uint8_t> node_down_;

    // --- adjacency --------------------------------------------------------
    /// CSR snapshot: out-edges of node i are [csr_offset_[i], csr_offset_[i+1]),
    /// in add_link order (Dijkstra's tie-breaking depends on edge
    /// relaxation order).  build_adjacency() rebuilds it from cables_ at
    /// every finalize().
    std::vector<std::uint32_t> csr_offset_;
    std::vector<std::uint32_t> csr_to_;
    std::vector<Link*> csr_link_;

    StableVector<Cable> cables_;  ///< creation order; adjacency points into dir[]
    /// link(a, b) lookup, keyed (from index << 32 | to index).  During
    /// construction every entry lives in the hash map; finalize() drains it
    /// into the sorted flat array -- two million directed links cost 32 MB
    /// there versus ~110 MB as hash nodes -- and links added afterwards
    /// collect in the (then near-empty) map until the next finalize().
    std::vector<std::pair<std::uint64_t, Link*>> link_flat_;
    std::unordered_map<std::uint64_t, Link*> link_index_;

    // --- hosts (cold; sparse side table over a by-value arena) ------------
    /// Declared above the arena: host destructors return their timer blocks
    /// here, so the pool must outlive the hosts.
    BlockPool host_pool_;
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

    // --- hierarchical routing --------------------------------------------
    std::vector<SiteTable> site_tables_;
    std::vector<std::uint32_t> node_site_;   ///< dense site index per node
    std::vector<std::uint32_t> node_local_;  ///< index within the site
    std::vector<std::uint32_t> border_nodes_;  ///< global node index per border
    std::vector<std::uint32_t> node_border_;   ///< border index; kNoIndex = interior
    /// Liveness snapshot taken at finalize().  Every row build consults
    /// this, never the live node_down_ flags, so routes stay a pure function
    /// of the last finalize() no matter when a row materialises.  Live liveness is applied at delivery time instead.
    std::vector<std::uint8_t> route_down_;
    /// Border projection of route_down_ (hop_toward's inner loop).
    std::vector<std::uint8_t> border_down_;
    /// Backbone all-pairs tables over the border nodes (B x B): distance,
    /// plus the first *physical* hop (node + link) toward each border --
    /// virtual intra-site backbone edges are pre-descended at build time.
    std::vector<std::int64_t> bb_dist_;
    std::vector<std::uint32_t> bb_next_node_;
    std::vector<Link*> bb_next_link_;

    std::size_t rows_built_ = 0;  ///< materialised site-table rows
    DijkstraScratch scratch_;

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
    /// called once from the constructor.  ~Network removes the gauges (the
    /// registry may outlive this network through metrics_ptr()).
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
