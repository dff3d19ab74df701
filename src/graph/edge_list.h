// Edge lists: the exchange format between generators, I/O, and CSR build.
#ifndef GRAPHPIM_GRAPH_EDGE_LIST_H_
#define GRAPHPIM_GRAPH_EDGE_LIST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace graphpim::graph {

struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  std::uint32_t weight = 1;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
  }
};

struct EdgeList {
  VertexId num_vertices = 0;
  std::vector<Edge> edges;
};

// Plain-text edge-list I/O ("src dst [weight]" per line, '#' comments).
// Returns false on I/O failure; malformed content throws SimError.
bool SaveEdgeList(const EdgeList& el, const std::string& path);
bool LoadEdgeList(const std::string& path, EdgeList* out);

}  // namespace graphpim::graph

#endif  // GRAPHPIM_GRAPH_EDGE_LIST_H_
