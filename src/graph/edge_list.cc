#include "graph/edge_list.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>

#include "common/log.h"

namespace graphpim::graph {

namespace {

constexpr const char* kBlank = " \t\r\n";

// Reads the next blank-separated field of `p` as an unsigned decimal no
// larger than `max`. Returns false when the line has no field left; throws
// SimError, naming the file and line, when the field is not such a number
// (a sign, a non-digit, or a value out of range).
bool NextField(const char*& p, std::uint64_t max, const std::string& path,
               std::size_t line_no, std::uint64_t* out) {
  p += std::strspn(p, kBlank);
  if (*p == '\0') return false;
  const std::string field(p, std::strcspn(p, kBlank));
  p += field.size();
  errno = 0;
  const std::uint64_t v = std::strtoull(field.c_str(), nullptr, 10);
  if (field.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE || v > max) {
    GP_THROW("edge list ", path, " line ", line_no, ": '", field,
             "' is not an integer in [0, ", max, "]");
  }
  *out = v;
  return true;
}

}  // namespace

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
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "r"), &std::fclose);
  if (f == nullptr) return false;
  out->edges.clear();
  out->num_vertices = 0;
  // The vertex count is the largest id + 1, so the largest id must leave
  // room for it in a VertexId.
  constexpr std::uint64_t kMaxId = std::numeric_limits<VertexId>::max() - 1;
  constexpr std::uint64_t kMaxWeight = std::numeric_limits<std::uint32_t>::max();
  char line[256];
  std::size_t line_no = 0;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++line_no;
    if (std::strchr(line, '\n') == nullptr && !std::feof(f.get())) {
      GP_THROW("edge list ", path, " line ", line_no, " is longer than ",
               sizeof(line) - 2, " characters");
    }
    if (line[0] == '#' || line[0] == '\n') continue;
    const char* p = line;
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::uint64_t w = 1;
    if (!NextField(p, kMaxId, path, line_no, &src) ||
        !NextField(p, kMaxId, path, line_no, &dst)) {
      GP_THROW("malformed edge-list line ", line_no, " in ", path, ": ", line);
    }
    NextField(p, kMaxWeight, path, line_no, &w);
    out->edges.push_back(Edge{static_cast<VertexId>(src),
                              static_cast<VertexId>(dst),
                              static_cast<std::uint32_t>(w)});
    const VertexId hi = static_cast<VertexId>(std::max(src, dst) + 1);
    if (hi > out->num_vertices) out->num_vertices = hi;
  }
  return true;
}

}  // namespace graphpim::graph
