#include "ctrl/graph.hh"

#include <algorithm>
#include <deque>

#include "sim/logging.hh"

namespace tf::ctrl {

VertexId
PropertyGraph::addVertex(VertexType type, std::string name)
{
    VertexId id = _nextVertex++;
    _vertices[id] = Vertex{id, type, std::move(name), {}};
    _adjacency[id];
    return id;
}

EdgeId
PropertyGraph::addEdge(VertexId a, VertexId b, double capacityGbps)
{
    TF_ASSERT(_vertices.count(a) && _vertices.count(b),
              "edge references unknown vertex");
    EdgeId id = _nextEdge++;
    _edges[id] = Edge{id, a, b, capacityGbps, 0};
    _adjacency[a].push_back(id);
    _adjacency[b].push_back(id);
    return id;
}

void
PropertyGraph::removeEdge(EdgeId e)
{
    auto it = _edges.find(e);
    if (it == _edges.end())
        return;
    for (VertexId v : {it->second.a, it->second.b}) {
        auto &adj = _adjacency[v];
        adj.erase(std::remove(adj.begin(), adj.end(), e), adj.end());
    }
    _edges.erase(it);
}

void
PropertyGraph::removeVertex(VertexId v)
{
    auto it = _adjacency.find(v);
    if (it == _adjacency.end())
        return;
    std::vector<EdgeId> incident = it->second;
    for (EdgeId e : incident)
        removeEdge(e);
    _adjacency.erase(v);
    _vertices.erase(v);
}

Vertex &
PropertyGraph::vertex(VertexId v)
{
    auto it = _vertices.find(v);
    TF_ASSERT(it != _vertices.end(), "unknown vertex");
    return it->second;
}

const Edge &
PropertyGraph::edge(EdgeId e) const
{
    auto it = _edges.find(e);
    TF_ASSERT(it != _edges.end(), "unknown edge");
    return it->second;
}

void
PropertyGraph::setEdgeUp(EdgeId e, bool up)
{
    auto it = _edges.find(e);
    TF_ASSERT(it != _edges.end(), "unknown edge");
    it->second.up = up;
}

std::optional<VertexId>
PropertyGraph::findByName(const std::string &name) const
{
    for (const auto &[id, v] : _vertices)
        if (v.name == name)
            return id;
    return std::nullopt;
}

std::vector<std::pair<EdgeId, VertexId>>
PropertyGraph::neighbours(VertexId v) const
{
    std::vector<std::pair<EdgeId, VertexId>> out;
    auto it = _adjacency.find(v);
    if (it == _adjacency.end())
        return out;
    for (EdgeId e : it->second) {
        const Edge &edge = _edges.at(e);
        out.emplace_back(e, edge.a == v ? edge.b : edge.a);
    }
    return out;
}

std::optional<Path>
PropertyGraph::findPath(VertexId from, VertexId to, double demandGbps,
                        const std::vector<EdgeId> *exclude) const
{
    if (!_vertices.count(from) || !_vertices.count(to))
        return std::nullopt;

    auto excluded = [&](EdgeId e) {
        return exclude != nullptr &&
               std::find(exclude->begin(), exclude->end(), e) !=
                   exclude->end();
    };

    // BFS for the fewest-hops path over edges with enough free
    // capacity ("best available path").
    std::map<VertexId, std::pair<VertexId, EdgeId>> parent;
    std::deque<VertexId> frontier{from};
    parent[from] = {from, 0};
    while (!frontier.empty()) {
        VertexId v = frontier.front();
        frontier.pop_front();
        if (v == to)
            break;
        for (const auto &[e, next] : neighbours(v)) {
            if (excluded(e))
                continue;
            const Edge &cand = _edges.at(e);
            if (!cand.up || cand.free() < demandGbps)
                continue;
            if (parent.count(next))
                continue;
            parent[next] = {v, e};
            frontier.push_back(next);
        }
    }
    if (!parent.count(to))
        return std::nullopt;

    Path path;
    for (VertexId v = to; v != from; v = parent[v].first) {
        path.vertices.push_back(v);
        path.edges.push_back(parent[v].second);
    }
    path.vertices.push_back(from);
    std::reverse(path.vertices.begin(), path.vertices.end());
    std::reverse(path.edges.begin(), path.edges.end());
    return path;
}

void
PropertyGraph::reserve(const Path &path, double demandGbps)
{
    for (EdgeId e : path.edges) {
        Edge &edge = _edges.at(e);
        TF_ASSERT(edge.free() >= demandGbps,
                  "reservation exceeds edge capacity");
        edge.reservedGbps += demandGbps;
    }
}

void
PropertyGraph::release(const Path &path, double demandGbps)
{
    for (EdgeId e : path.edges) {
        auto it = _edges.find(e);
        if (it == _edges.end())
            continue;
        it->second.reservedGbps =
            std::max(0.0, it->second.reservedGbps - demandGbps);
    }
}

} // namespace tf::ctrl
