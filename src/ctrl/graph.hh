/**
 * @file
 * System-state property graph (Section IV-C).
 *
 * The control plane models the system as an undirected graph whose
 * vertices are compute and memory endpoints, the transceivers
 * associated with each endpoint, and switch ports; edges are the
 * possible physical links. For each disaggregated-memory allocation
 * the control plane searches the graph for the best available path
 * and reserves its resources.
 *
 * The paper backs this with JanusGraph; a process-local property
 * graph preserves the observable behaviour (see DESIGN.md).
 */

#ifndef TF_CTRL_GRAPH_HH
#define TF_CTRL_GRAPH_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tf::ctrl {

using VertexId = std::uint64_t;
using EdgeId = std::uint64_t;

enum class VertexType {
    ComputeEndpoint,
    MemoryEndpoint,
    Transceiver,
    SwitchPort,
};

struct Vertex
{
    VertexId id = 0;
    VertexType type = VertexType::Transceiver;
    std::string name;
    std::map<std::string, std::string> props;
};

struct Edge
{
    EdgeId id = 0;
    VertexId a = 0;
    VertexId b = 0;
    double capacityGbps = 0;
    double reservedGbps = 0;
    /** Health: a down link stays in the graph (it may come back) but
     *  is never picked by findPath. */
    bool up = true;

    double free() const { return capacityGbps - reservedGbps; }
};

/** A reserved end-to-end path: ordered vertices and the edges used. */
struct Path
{
    std::vector<VertexId> vertices;
    std::vector<EdgeId> edges;
};

class PropertyGraph
{
  public:
    VertexId addVertex(VertexType type, std::string name);
    EdgeId addEdge(VertexId a, VertexId b, double capacityGbps);

    void removeVertex(VertexId v); ///< also removes incident edges
    void removeEdge(EdgeId e);

    Vertex &vertex(VertexId v);
    const Edge &edge(EdgeId e) const;

    /** Mark a link up/down; down edges are skipped by findPath. */
    void setEdgeUp(EdgeId e, bool up);

    std::optional<VertexId> findByName(const std::string &name) const;

    /** (edge, neighbour) pairs incident to @p v. */
    std::vector<std::pair<EdgeId, VertexId>> neighbours(VertexId v)
        const;

    std::size_t vertexCount() const { return _vertices.size(); }
    std::size_t edgeCount() const { return _edges.size(); }

    /**
     * Shortest (fewest hops) path from @p from to @p to using only
     * edges with at least @p demandGbps free capacity.
     * @param exclude edges that must not be used (e.g. to find a
     *        disjoint second path for channel bonding).
     */
    std::optional<Path> findPath(
        VertexId from, VertexId to, double demandGbps,
        const std::vector<EdgeId> *exclude = nullptr) const;

    /** Reserve @p demandGbps on every edge of @p path. */
    void reserve(const Path &path, double demandGbps);

    /** Release a previous reservation. */
    void release(const Path &path, double demandGbps);

  private:
    std::map<VertexId, Vertex> _vertices;
    std::map<EdgeId, Edge> _edges;
    std::map<VertexId, std::vector<EdgeId>> _adjacency;
    VertexId _nextVertex = 1;
    EdgeId _nextEdge = 1;
};

} // namespace tf::ctrl

#endif // TF_CTRL_GRAPH_HH
