#include "graph/edge_list.h"

#include <cstdio>

#include "common/log.h"

namespace graphpim::graph {

bool SaveEdgeList(const EdgeList& el, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# vertices %u edges %zu\n", el.num_vertices, el.edges.size());
  for (const Edge& e : el.edges) {
    std::fprintf(f, "%u %u %u\n", e.src, e.dst, e.weight);
  }
  std::fclose(f);
  return true;
}

bool LoadEdgeList(const std::string& path, EdgeList* out) {
  GP_CHECK(out != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  out->edges.clear();
  out->num_vertices = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#' || line[0] == '\n') continue;
    unsigned src = 0;
    unsigned dst = 0;
    unsigned w = 1;
    int n = std::sscanf(line, "%u %u %u", &src, &dst, &w);
    if (n < 2) {
      std::fclose(f);
      GP_THROW("malformed edge-list line in ", path, ": ", line);
    }
    out->edges.push_back(Edge{src, dst, n >= 3 ? w : 1});
    VertexId hi = static_cast<VertexId>(std::max(src, dst)) + 1;
    if (hi > out->num_vertices) out->num_vertices = hi;
  }
  std::fclose(f);
  return true;
}

}  // namespace graphpim::graph
