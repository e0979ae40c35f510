#include "sim/network.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sim/sim_host.hpp"

namespace lbrm::sim {

namespace {

constexpr std::int64_t kInfDist = std::numeric_limits<std::int64_t>::max();

/// Edge weight: propagation + 1 microsecond hop penalty (prefers fewer
/// hops between equal-latency paths, keeping routes deterministic).  Routes
/// are the true shortest paths under this metric wherever those are unique
/// (DESIGN.md "Hierarchical routing", tie-breaking).
[[nodiscard]] std::int64_t edge_weight(const LinkSpec& spec) {
    return spec.propagation.count() + 1000;
}

/// Multicast-tree cache key: (group id, sender id) packed into 64 bits.
[[nodiscard]] std::uint64_t tree_key(GroupId group, NodeId sender) {
    return (static_cast<std::uint64_t>(group.value()) << 32) | sender.value();
}

}  // namespace

namespace {
/// "sim.*" pull-gauge names registered by register_metrics(); ~Network
/// removes exactly this list (the registry can outlive the network).
constexpr const char* kSimGaugeNames[] = {
    "sim.cached_trees",     "sim.tree_cache_bytes",   "sim.site_rows_built",
    "sim.routing_table_bytes", "sim.drops_queue",     "sim.drops_loss",
    "sim.link_packets",     "sim.link_bytes",         "sim.queue_pending",
    "sim.events_processed", "sim.events_scheduled",
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
    m.gauge_fn("sim.site_rows_built",
               [this] { return static_cast<std::uint64_t>(site_rows_built()); });
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
    node_is_router_.reserve(nodes);
    node_down_.reserve(nodes);
    node_host_.reserve(nodes);
    cable_head_.reserve(nodes);
    cable_tail_.reserve(nodes);
    end_next_.reserve(directed_links);  // two cable ends per cable
}

NodeId Network::add_node(SiteId site, bool is_router) {
    node_site_id_.push_back(site);
    node_is_router_.push_back(is_router ? 1 : 0);
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
    // routes, as before.  The CSR snapshot is *not* rebuilt here: routing
    // (including rows built from now on) keeps reading the finalize-time
    // adjacency and weights until the required finalize() -- stale tables,
    // as in a network whose routing protocol has not reconverged.
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
    // -- every site-table row (whenever it is built) and hop_toward consult
    // the route_down_ / border_down_ snapshots, never the live flags -- so
    // a downed relay blackholes until re-finalize, like an unconverged
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
// Routing: finalize() snapshots what the site/backbone tables are built
// from; rows build on first touch (DESIGN.md "Hierarchical routing",
// "Scale engineering").
// ---------------------------------------------------------------------------

void Network::build_adjacency() {
    // Counting sort of the directed links by source node.  Row sizes first,
    // prefix-summed into row starts.
    const std::size_t n = node_count();
    csr_offset_.assign(n + 1, 0);
    for (const Cable& c : cables_) {
        ++csr_offset_[index(c.a) + 1];
        ++csr_offset_[index(c.b) + 1];
    }
    for (std::size_t i = 0; i < n; ++i) csr_offset_[i + 1] += csr_offset_[i];
    csr_to_.resize(csr_offset_[n]);
    csr_link_.resize(csr_offset_[n]);
    cable_weight_.resize(cables_.size());
    // Walking the cables in creation order puts each node's out-edges in
    // add_link order.  Filling advances csr_offset_[i] from the start of
    // row i to its end, which is the start of row i + 1, so one shift
    // restores the row starts afterwards.
    auto place = [this](std::size_t from, std::size_t to, std::uint32_t e) {
        const std::uint32_t k = csr_offset_[from]++;
        csr_to_[k] = static_cast<std::uint32_t>(to);
        csr_link_[k] = e;
    };
    std::uint32_t e = 0;  // cable c's ends are 2c and 2c + 1
    for (const Cable& c : cables_) {
        cable_weight_[e >> 1] = edge_weight(c.spec);
        place(index(c.a), index(c.b), e++);
        place(index(c.b), index(c.a), e++);
    }
    std::copy_backward(csr_offset_.begin(), csr_offset_.end() - 1, csr_offset_.end());
    csr_offset_[0] = 0;
}

void Network::finalize() {
    LBRM_TRACE_SPAN("finalize");
    {
        LBRM_TRACE_SPAN("finalize.prep");
        invalidate_all_trees();
        // Snapshot adjacency and liveness: every table row -- including rows
        // materialised mid-run -- is a pure function of these, so build
        // order/time cannot change a route.
        build_adjacency();
        route_down_.assign(node_down_.begin(), node_down_.end());
    }
    rows_built_ = 0;
    bb_rows_built_ = 0;
    {
        LBRM_TRACE_SPAN("finalize.routes");
        build_hierarchical_routes();
    }
    finalized_ = true;
}

void Network::build_hierarchical_routes() {
    const std::size_t n = node_count();

    {
        LBRM_TRACE_SPAN("finalize.site_index");
        // 1. Group nodes into dense site indices (first-appearance order).
        site_tables_.clear();
        node_site_.assign(n, 0);
        node_local_.assign(n, 0);
        // Nodes of one site are usually added together, so the hash is
        // consulted once per run of same-site nodes, not once per node.
        std::unordered_map<std::uint32_t, std::uint32_t> site_index;
        std::uint32_t run_key = 0;
        std::uint32_t run_site = kNoIndex;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t key = node_site_id_[i].value();
            if (run_site == kNoIndex || key != run_key) {
                auto [it, inserted] = site_index.emplace(
                    key, static_cast<std::uint32_t>(site_tables_.size()));
                if (inserted) site_tables_.emplace_back();
                run_key = key;
                run_site = it->second;
            }
            SiteTable& table = site_tables_[run_site];
            node_site_[i] = run_site;
            node_local_[i] = static_cast<std::uint32_t>(table.nodes.size());
            table.nodes.push_back(static_cast<std::uint32_t>(i));
        }
        // Pre-size every row slot; traffic fills whichever slot it first
        // touches.
        for (SiteTable& table : site_tables_) {
            table.rows.clear();
            table.rows.resize(table.nodes.size());
            table.borders.clear();
        }

        // 2. Border nodes: any node with an inter-site link (ascending index).
        border_nodes_.clear();
        node_border_.assign(n, kNoIndex);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::uint32_t k = csr_offset_[i]; k != csr_offset_[i + 1]; ++k) {
                if (node_site_[csr_to_[k]] != node_site_[i]) {
                    node_border_[i] = static_cast<std::uint32_t>(border_nodes_.size());
                    border_nodes_.push_back(static_cast<std::uint32_t>(i));
                    site_tables_[node_site_[i]].borders.push_back(
                        static_cast<std::uint32_t>(i));
                    break;
                }
            }
        }
        // Border projection of the liveness snapshot: hop_toward must see the
        // state the tables were built under, not later set_node_down
        // transitions (which only take routing effect at the next finalize).
        border_down_.assign(border_nodes_.size(), 0);
        for (std::size_t b = 0; b < border_nodes_.size(); ++b)
            border_down_[b] = route_down_[border_nodes_[b]];
    }

    // 3. Border rows only: the border graph needs them.  Every other row
    //    materialises on first touch (ensure_row).
    {
        LBRM_TRACE_SPAN("finalize.site_rows");
        for (std::size_t s = 0; s < site_tables_.size(); ++s)
            for (const std::uint32_t gb : site_tables_[s].borders)
                build_site_row(static_cast<std::uint32_t>(s), node_local_[gb]);
    }

    // 4. The border graph; backbone rows materialise on first touch
    //    (backbone_row).
    build_border_graph();
}

template <class Relays, class ForEachEdge>
std::unique_ptr<Network::RowCell[]> Network::dijkstra_row(std::uint32_t src, std::size_t n,
                                                          Relays relays,
                                                          ForEachEdge for_each_edge) {
    auto row = std::make_unique_for_overwrite<RowCell[]>(n);
    std::fill_n(row.get(), n, RowCell{kInfDist, kNoIndex, nullptr});
    row[src].dist = 0;
    auto& pq = scratch_.pq;
    pq.emplace(0, src);
    while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (d != row[u].dist) continue;
        if (u != src && !relays(u)) continue;  // a down node may end a path only
        for_each_edge(u, [&, d = d, u = u](std::uint32_t v, std::int64_t w,
                                           std::uint32_t first_node, Link* first_link) {
            if (d + w >= row[v].dist) return;
            row[v] = (u == src) ? RowCell{d + w, first_node, first_link}
                                : RowCell{d + w, row[u].next, row[u].link};
            pq.emplace(d + w, v);
        });
    }
    return row;
}

void Network::build_site_row(std::uint32_t site, std::uint32_t src_local) {
    // Dijkstra over the site's own subgraph against the finalize-time
    // adjacency + liveness snapshots, never live state, so a row built
    // mid-run is bit-identical to the same row built at finalize().
    SiteTable& table = site_tables_[site];
    table.rows[src_local] = dijkstra_row(
        src_local, table.size(),
        [&](std::uint32_t u) { return route_down_[table.nodes[u]] == 0; },
        [&](std::uint32_t u, auto&& relax) {
            const std::uint32_t gu = table.nodes[u];
            for (std::uint32_t k = csr_offset_[gu]; k != csr_offset_[gu + 1]; ++k) {
                const std::uint32_t gv = csr_to_[k];
                if (node_site_[gv] != site) continue;  // intra only
                const std::uint32_t e = csr_link_[k];
                relax(node_local_[gv], cable_weight_[e >> 1], gv, &directed_link(e));
            }
        });
    ++rows_built_;
}

void Network::build_border_graph() {
    LBRM_TRACE_SPAN("finalize.border_graph");
    // Edges: real inter-site links, plus one virtual edge per same-site
    // border pair weighted by the intra-site distance -- so inter-border
    // travel *through* a site's interior is represented and the composed
    // metric is exact.  A virtual edge's first physical hop is resolved
    // through the border rows here, making descent O(1).  Per border, real
    // links come first in adjacency order and virtual edges follow in
    // site-border order: the relaxation order backbone rows tie-break on.
    const std::size_t nb = border_nodes_.size();
    bg_offset_.assign(nb + 1, 0);
    bg_edges_.clear();
    for (std::size_t b = 0; b < nb; ++b) {
        const std::uint32_t gu = border_nodes_[b];
        for (std::uint32_t k = csr_offset_[gu]; k != csr_offset_[gu + 1]; ++k) {
            const std::uint32_t gv = csr_to_[k];
            if (node_site_[gv] == node_site_[gu]) continue;
            // inter-site => gv is a border
            const std::uint32_t e = csr_link_[k];
            bg_edges_.push_back(BorderEdge{cable_weight_[e >> 1], node_border_[gv], gv,
                                           &directed_link(e)});
        }
        const SiteTable& table = site_tables_[node_site_[gu]];
        const RowCell* row = table.rows[node_local_[gu]].get();
        for (const std::uint32_t gv : table.borders) {
            if (gv == gu) continue;
            const RowCell& cell = row[node_local_[gv]];
            if (cell.dist == kInfDist) continue;
            bg_edges_.push_back(BorderEdge{cell.dist, node_border_[gv], cell.next, cell.link});
        }
        bg_offset_[b + 1] = static_cast<std::uint32_t>(bg_edges_.size());
    }
    bb_rows_.clear();
    bb_rows_.resize(nb);
}

const Network::RowCell* Network::backbone_row(std::uint32_t b) {
    if (!bb_rows_[b]) {
        bb_rows_[b] = dijkstra_row(
            b, border_nodes_.size(), [this](std::uint32_t u) { return border_down_[u] == 0; },
            [this](std::uint32_t u, auto&& relax) {
                for (std::uint32_t k = bg_offset_[u]; k != bg_offset_[u + 1]; ++k) {
                    const BorderEdge& e = bg_edges_[k];
                    relax(e.to, e.weight, e.first_node, e.first_link);
                }
            });
        ++bb_rows_built_;
    }
    return bb_rows_[b].get();
}

Network::Hop Network::hop_toward(std::uint32_t from, std::uint32_t to) {
    // No finalized_ check here: the traffic entry points enforce it, and
    // in-flight deliveries must keep forwarding on the (stale) tables after
    // a mid-run add_link.
    if (from == to) return Hop{};
    if (const std::uint32_t k = sole_edge(from); k != kNoIndex) {
        // A single-cable node routes everything through its cable, and
        // reaches what the far end reaches -- so it never needs a row.
        const Hop via{csr_to_[k], &directed_link(csr_link_[k])};
        const bool reaches = to == via.next || (far_end_relays(via.next) &&
                                                hop_toward(via.next, to).link != nullptr);
        return reaches ? via : Hop{};
    }
    const std::uint32_t su = node_site_[from];
    const std::uint32_t sv = node_site_[to];
    SiteTable& stu = site_tables_[su];
    SiteTable& stv = site_tables_[sv];
    const std::size_t lu = node_local_[from];
    const std::size_t lv = node_local_[to];

    ensure_row(su, static_cast<std::uint32_t>(lu));
    const RowCell* ru = stu.rows[lu].get();

    std::int64_t best = kInfDist;
    Hop choice;

    // Candidate 1: stay inside the shared site.
    if (su == sv) {
        const RowCell& c = ru[lv];
        if (c.dist < kInfDist) {
            best = c.dist;
            choice = Hop{c.next, c.link};
        }
    }

    // Candidate 2: exit via border b1, cross the backbone, enter via b2.
    // For same-site pairs this also covers leave-and-return paths, except
    // through one border b (b1 == b2): b relays (it is alive, or it would
    // be skipped), so intra(from, b) + intra(b, to) is itself an intra-site
    // walk and can never beat candidate 1.  Borders down *at the last
    // finalize* never relay, but may still be the endpoint itself;
    // liveness comes from the border_down_ snapshot, never the live flags,
    // so a mid-run set_node_down leaves routing untouched until
    // re-finalize.  Every row consulted here is `from`'s own (ensured
    // above), a border row (finalize() builds those eagerly) or b1's
    // backbone row, fetched only once a pair could beat `best`.
    for (const std::uint32_t b1 : stu.borders) {
        if (border_down_[node_border_[b1]] && b1 != from) continue;
        const std::int64_t du = (b1 == from) ? 0 : ru[node_local_[b1]].dist;
        if (du == kInfDist || du >= best) continue;
        const RowCell* bb = nullptr;
        for (const std::uint32_t b2 : stv.borders) {
            if (b2 == b1) continue;
            if (border_down_[node_border_[b2]] && b2 != to) continue;
            const std::int64_t dv =
                (b2 == to) ? 0 : stv.rows[node_local_[b2]][lv].dist;
            if (dv == kInfDist || du + dv >= best) continue;
            if (bb == nullptr) bb = backbone_row(node_border_[b1]);
            const RowCell& cell = bb[node_border_[b2]];
            if (cell.dist == kInfDist) continue;
            const std::int64_t total = du + cell.dist + dv;
            if (total >= best) continue;
            best = total;
            if (from != b1) {
                const RowCell& c = ru[node_local_[b1]];
                choice = Hop{c.next, c.link};
            } else {
                choice = Hop{cell.next, cell.link};
            }
        }
    }
    return choice;
}

std::uint64_t Network::routing_table_hash() {
    Fnv1a h;
    auto mix_link = [&h](const Link* l) {
        h.mix(l != nullptr
                  ? (static_cast<std::uint64_t>(l->from().value()) << 32) | l->to().value()
                  : 0);
    };
    for (std::size_t s = 0; s < site_tables_.size(); ++s) {
        SiteTable& t = site_tables_[s];
        const std::size_t m = t.size();
        h.mix(m);
        for (const std::uint32_t v : t.nodes) h.mix(v);
        for (const std::uint32_t v : t.borders) h.mix(v);
        for (std::size_t l = 0; l < m; ++l) {
            ensure_row(static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(l));
            const RowCell* row = t.rows[l].get();
            for (std::size_t j = 0; j < m; ++j) {
                h.mix(static_cast<std::uint64_t>(row[j].dist));
                h.mix(row[j].next);
                mix_link(row[j].link);
            }
        }
    }
    for (const std::uint32_t v : border_nodes_) h.mix(v);
    for (const std::uint8_t v : border_down_) h.mix(v);
    // The backbone in row-major order, a field at a time: every distance,
    // then every next node, then every link.
    const auto nb = static_cast<std::uint32_t>(border_nodes_.size());
    for (std::uint32_t b = 0; b < nb; ++b) (void)backbone_row(b);
    for (const auto& row : bb_rows_)
        for (std::uint32_t j = 0; j < nb; ++j) h.mix(static_cast<std::uint64_t>(row[j].dist));
    for (const auto& row : bb_rows_)
        for (std::uint32_t j = 0; j < nb; ++j) h.mix(row[j].next);
    for (const auto& row : bb_rows_)
        for (std::uint32_t j = 0; j < nb; ++j) mix_link(row[j].link);
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
        std::uint32_t parent = kNoIndex;  ///< first parent entry to adopt it
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

    // A single-cable root's first hop is its cable whatever the member
    // (hop_toward's single-cable rule), so walks start at the far end and
    // pay one hop_toward there instead of two.
    const std::uint32_t root_edge = sole_edge(from_index);
    const std::uint32_t root_far = root_edge != kNoIndex ? csr_to_[root_edge] : kNoIndex;
    const bool root_far_relays = root_edge != kNoIndex && far_end_relays(root_far);

    std::vector<std::uint32_t> path;
    std::vector<Link*> path_links;
    for (NodeId member : members) {
        if (member == from || node_down_[index(member)] != 0) continue;
        if (scope == McastScope::kSite && site_of(member) != sender_site) continue;

        // Walk the route hop by hop; collect the node chain and its links.
        const std::uint32_t member_index = static_cast<std::uint32_t>(index(member));
        path.assign(1, from_index);
        path_links.clear();
        std::uint32_t at = from_index;
        if (root_edge != kNoIndex) {
            if (member_index != root_far && !root_far_relays) continue;
            path.push_back(root_far);
            path_links.push_back(&directed_link(csr_link_[root_edge]));
            at = root_far;
        }
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
            if (path.size() > n) {
                reachable = false;  // routing loop guard
                break;
            }
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
            const std::uint32_t parent = slot_of(path[i]);
            const std::uint32_t child = slot_of(path[i + 1]);
            // O(1) against the child's first parent; only a child already
            // hanging under a different parent (two members' routes that
            // diverge and re-join) scans the new parent's children.
            std::uint32_t& first_parent = entries[child].parent;
            if (first_parent == parent) continue;
            auto& siblings = kids[parent];
            if (first_parent == kNoIndex) {
                first_parent = parent;
            } else if (std::find_if(siblings.begin(), siblings.end(),
                                    [child](const CachedTree::Child& c) {
                                        return c.entry == child;
                                    }) != siblings.end()) {
                continue;
            }
            siblings.push_back(CachedTree::Child{child, path_links[i]});
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

Duration Network::min_cut_propagation(
    const std::vector<std::uint32_t>& node_shard) const {
    Duration best = Duration::max();
    for (const Cable& c : cables_) {
        const std::size_t a = index(c.a), b = index(c.b);
        if (a >= node_shard.size() || b >= node_shard.size()) continue;
        if (node_shard[a] == node_shard[b]) continue;
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
    // (sim.remote_drops stays zero; shard_test asserts it).
    const auto scope = static_cast<McastScope>(ev.scope);
    const std::shared_ptr<const CachedTree> tree =
        resolve_tree(NodeId{ev.tree_root + 1}, ev.packet.header.group, scope);
    if (!tree || tree->children.size() < ev.entry_begin + ev.entry_count) {
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
    std::size_t total = 0;
    for (const SiteTable& t : site_tables_) {
        total += t.nodes.capacity() * sizeof(std::uint32_t) +
                 t.borders.capacity() * sizeof(std::uint32_t) +
                 t.rows.capacity() * sizeof(std::unique_ptr<RowCell[]>) +
                 sizeof(SiteTable);
        for (const auto& row : t.rows)
            if (row) total += t.size() * sizeof(RowCell);
    }
    total += node_site_.capacity() * sizeof(std::uint32_t) +
             node_local_.capacity() * sizeof(std::uint32_t) +
             border_nodes_.capacity() * sizeof(std::uint32_t) +
             node_border_.capacity() * sizeof(std::uint32_t) +
             route_down_.capacity() * sizeof(std::uint8_t) +
             border_down_.capacity() * sizeof(std::uint8_t);
    total += bg_offset_.capacity() * sizeof(std::uint32_t) +
             bg_edges_.capacity() * sizeof(BorderEdge) +
             bb_rows_.capacity() * sizeof(std::unique_ptr<RowCell[]>) +
             bb_rows_built_ * border_nodes_.size() * sizeof(RowCell);
    return total;
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
