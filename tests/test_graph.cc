// Tests for the graph framework: generators, CSR, regions, properties, I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/random.h"
#include "graph/csr.h"
#include "graph/edge_list.h"
#include "graph/generator.h"
#include "graph/property.h"
#include "graph/region.h"

namespace graphpim::graph {
namespace {

TEST(Region, BumpAllocatesAligned) {
  Region r(0x1000, 4096);
  Addr a = r.Allocate(10, 64);
  Addr b = r.Allocate(10, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
  EXPECT_EQ(r.used_bytes(), b + 10 - 0x1000);
}

TEST(Region, ResetReclaims) {
  Region r(0, 4096);
  r.Allocate(1000);
  r.Reset();
  EXPECT_EQ(r.used_bytes(), 0u);
}

TEST(AddressSpace, SegmentsDisjointAndClassified) {
  AddressSpace space;
  Addr m = space.meta().Allocate(64);
  Addr s = space.structure().Allocate(64);
  Addr p = space.PmrMalloc(64);
  EXPECT_EQ(space.ComponentOf(m), DataComponent::kMeta);
  EXPECT_EQ(space.ComponentOf(s), DataComponent::kStructure);
  EXPECT_EQ(space.ComponentOf(p), DataComponent::kProperty);
  EXPECT_GE(p, space.pmr_base());
  EXPECT_LT(p, space.pmr_end());
}

TEST(PropertyArray, StrideSeparatesVertices) {
  AddressSpace space;
  PropertyArray<std::int64_t> prop(space.pmr(), 100, -1);
  EXPECT_EQ(prop.stride(), kVertexPropertyStride);
  EXPECT_EQ(prop.AddrOf(1) - prop.AddrOf(0), kVertexPropertyStride);
  EXPECT_EQ(prop[5], -1);
  prop[5] = 9;
  EXPECT_EQ(prop[5], 9);
  // No two vertices share a cache line under the default stride.
  EXPECT_NE(prop.AddrOf(0) / 64, prop.AddrOf(1) / 64);
}

TEST(PropertyArray, PackedStrideOption) {
  AddressSpace space;
  PropertyArray<double> packed(space.meta(), 16, 0.0, sizeof(double));
  EXPECT_EQ(packed.AddrOf(1) - packed.AddrOf(0), sizeof(double));
}

TEST(Generator, Deterministic) {
  RmatParams p;
  p.num_vertices = 1024;
  p.avg_degree = 8;
  EdgeList a = GenerateRmat(p);
  EdgeList b = GenerateRmat(p);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  EXPECT_TRUE(std::equal(a.edges.begin(), a.edges.end(), b.edges.begin()));
}

TEST(Generator, SeedChangesGraph) {
  RmatParams p;
  p.num_vertices = 1024;
  p.avg_degree = 8;
  EdgeList a = GenerateRmat(p);
  p.seed = 99;
  EdgeList b = GenerateRmat(p);
  EXPECT_FALSE(std::equal(a.edges.begin(), a.edges.end(), b.edges.begin()));
}

TEST(Generator, TargetEdgeCountAndNoSelfLoops) {
  RmatParams p;
  p.num_vertices = 2048;
  p.avg_degree = 10;
  EdgeList el = GenerateRmat(p);
  EXPECT_EQ(el.num_vertices, 2048u);
  EXPECT_EQ(el.edges.size(), 20480u);
  for (const Edge& e : el.edges) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.src, el.num_vertices);
    EXPECT_LT(e.dst, el.num_vertices);
    EXPECT_GE(e.weight, 1u);
    EXPECT_LE(e.weight, p.max_weight);
  }
}

TEST(Generator, DegreeCapHolds) {
  RmatParams p;
  p.num_vertices = 4096;
  p.avg_degree = 8;
  p.max_degree_factor = 4.0;  // cap = 32
  EdgeList el = GenerateRmat(p);
  std::vector<std::uint32_t> in(el.num_vertices, 0);
  std::vector<std::uint32_t> out(el.num_vertices, 0);
  for (const Edge& e : el.edges) {
    ++out[e.src];
    ++in[e.dst];
  }
  for (VertexId v = 0; v < el.num_vertices; ++v) {
    EXPECT_LE(in[v], 33u);
    EXPECT_LE(out[v], 33u);
  }
}

TEST(Generator, SkewedDegreesVsUniform) {
  RmatParams p;
  p.num_vertices = 8192;
  p.avg_degree = 16;
  p.max_degree_factor = 16.0;
  EdgeList rmat = GenerateRmat(p);
  EdgeList uni = GenerateUniform(8192, 16, 1);
  auto max_out = [](const EdgeList& el) {
    std::vector<std::uint32_t> out(el.num_vertices, 0);
    for (const Edge& e : el.edges) ++out[e.src];
    return *std::max_element(out.begin(), out.end());
  };
  EXPECT_GT(max_out(rmat), 2 * max_out(uni));
}

TEST(Generator, Profiles) {
  EdgeList ldbc = GenerateProfile("ldbc", 1024, 1);
  EXPECT_NEAR(static_cast<double>(ldbc.edges.size()) / ldbc.num_vertices, 28.8, 0.1);
  EdgeList btc = GenerateProfile("bitcoin", 1024, 1);
  EXPECT_NEAR(static_cast<double>(btc.edges.size()) / btc.num_vertices, 2.5, 0.1);
  EdgeList tw = GenerateProfile("twitter", 1024, 1);
  EXPECT_NEAR(static_cast<double>(tw.edges.size()) / tw.num_vertices, 7.7, 0.1);
}

TEST(Generator, LdbcNames) {
  EXPECT_EQ(LdbcSizeFromName("ldbc-1k"), 1024u);
  EXPECT_EQ(LdbcSizeFromName("ldbc-10k"), 10u * 1024);
  EXPECT_EQ(LdbcSizeFromName("ldbc-100k"), 100u * 1024);
  EXPECT_EQ(LdbcSizeFromName("ldbc-1m"), 1024u * 1024);
}

// ---- serial reference generator: the RMAT pipeline as it was before the
// draw loop gained its prefetching look-ahead, kept verbatim so the
// look-ahead can be checked against it edge for edge.

std::uint64_t RefThresholdMantissa(double t) {
  if (t <= 0.0) return 0;
  if (t >= 1.0) return std::uint64_t{1} << 53;
  auto m = static_cast<std::uint64_t>(t * 0x1p53);
  while (static_cast<double>(m) * 0x1p-53 < t) ++m;
  while (m > 0 && static_cast<double>(m - 1) * 0x1p-53 >= t) --m;
  return m;
}

Edge RefRmatEdge(Rng& rng, std::uint32_t scale, const std::uint64_t thresholds[3]) {
  VertexId src = 0;
  VertexId dst = 0;
  for (std::uint32_t bit = 0; bit < scale; ++bit) {
    const std::uint64_t m = rng.Next() >> 11;
    VertexId k = static_cast<VertexId>(m >= thresholds[0]) +
                 static_cast<VertexId>(m >= thresholds[1]) +
                 static_cast<VertexId>(m >= thresholds[2]);
    src = (src << 1) | (k >> 1);
    dst = (dst << 1) | (k & 1);
  }
  return Edge{src, dst, 1};
}

template <typename DegT>
void RefDrawRmatEdges(EdgeList& el, Rng& rng, std::uint64_t target,
                      std::uint32_t scale, const std::uint64_t thresholds[3],
                      std::uint32_t cap, std::uint64_t max_weight) {
  std::vector<DegT> in_deg;
  std::vector<DegT> out_deg;
  if (cap != 0) {
    in_deg.assign(el.num_vertices, 0);
    out_deg.assign(el.num_vertices, 0);
  }
  Rng local = rng;
  while (el.edges.size() < target) {
    Edge e = RefRmatEdge(local, scale, thresholds);
    if (cap != 0) {
      while (out_deg[e.src] >= cap) {
        e.src = static_cast<VertexId>(local.NextBounded(el.num_vertices));
      }
      while (in_deg[e.dst] >= cap) {
        e.dst = static_cast<VertexId>(local.NextBounded(el.num_vertices));
      }
    }
    if (e.src == e.dst) continue;  // drop self-loops
    if (cap != 0) {
      ++out_deg[e.src];
      ++in_deg[e.dst];
    }
    e.weight = 1 + static_cast<std::uint32_t>(local.NextBounded(max_weight));
    el.edges.push_back(e);
  }
  rng = local;
}

EdgeList RefGenerateRmat(const RmatParams& params) {
  EdgeList el;
  el.num_vertices = params.num_vertices <= 1
                        ? 1
                        : std::bit_ceil(static_cast<std::uint32_t>(params.num_vertices));
  std::uint32_t scale = static_cast<std::uint32_t>(std::countr_zero(el.num_vertices));
  std::uint64_t target = static_cast<std::uint64_t>(
      params.avg_degree * static_cast<double>(el.num_vertices) + 0.5);
  el.edges.reserve(target);
  Rng rng(params.seed);
  std::uint32_t cap = 0;
  if (params.max_degree_factor > 0) {
    cap = static_cast<std::uint32_t>(params.max_degree_factor * params.avg_degree);
    if (cap < 4) cap = 4;
  }
  const std::uint64_t thresholds[3] = {
      RefThresholdMantissa(params.a), RefThresholdMantissa(params.a + params.b),
      RefThresholdMantissa(params.a + params.b + params.c)};
  if (cap <= 0xffff) {
    RefDrawRmatEdges<std::uint16_t>(el, rng, target, scale, thresholds, cap,
                                    params.max_weight);
  } else {
    RefDrawRmatEdges<std::uint32_t>(el, rng, target, scale, thresholds, cap,
                                    params.max_weight);
  }
  std::vector<VertexId> perm(el.num_vertices);
  for (VertexId v = 0; v < el.num_vertices; ++v) perm[v] = v;
  for (VertexId v = el.num_vertices; v > 1; --v) {
    std::uint64_t j = rng.NextBounded(v);
    std::swap(perm[v - 1], perm[j]);
  }
  for (Edge& e : el.edges) {
    e.src = perm[e.src];
    e.dst = perm[e.dst];
  }
  return el;
}

// Expects GenerateRmat to reproduce the serial reference exactly. The
// id permutation is drawn after the edges, so an equal permuted list also
// pins the generator state the draw loop hands back.
void ExpectMatchesReference(const RmatParams& p) {
  const EdgeList got = GenerateRmat(p);
  const EdgeList want = RefGenerateRmat(p);
  EXPECT_EQ(got.num_vertices, want.num_vertices);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  EXPECT_TRUE(got.edges == want.edges)
      << "n=" << p.num_vertices << " deg=" << p.avg_degree
      << " cap factor=" << p.max_degree_factor << " seed=" << p.seed;
}

TEST(Generator, MatchesSerialReferenceOnEveryProfile) {
  struct Profile {
    const char* name;
    double avg_degree, a, b, c;
  };
  // GenerateProfile's parameters; the first check below ties them to it.
  const Profile profiles[] = {{"ldbc", 28.8, 0.45, 0.22, 0.22},
                              {"bitcoin", 2.5, 0.60, 0.18, 0.18},
                              {"twitter", 7.7, 0.55, 0.20, 0.20}};
  for (const Profile& pr : profiles) {
    for (std::uint64_t seed : {1u, 7u, 42u}) {
      for (int log_n = 6; log_n <= 16; log_n += 2) {
        RmatParams p;
        p.num_vertices = VertexId{1} << log_n;
        p.seed = seed;
        p.avg_degree = pr.avg_degree;
        p.a = pr.a;
        p.b = pr.b;
        p.c = pr.c;
        if (log_n == 10) {
          EXPECT_TRUE(GenerateProfile(pr.name, p.num_vertices, seed).edges ==
                      GenerateRmat(p).edges)
              << pr.name;
        }
        ExpectMatchesReference(p);
      }
    }
  }
}

TEST(Generator, MatchesSerialReferenceWithoutCapAndWithWideCounters) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    RmatParams p;
    p.num_vertices = 1 << 14;
    p.seed = seed;
    p.max_degree_factor = 0;  // unbounded
    ExpectMatchesReference(p);
    p.max_degree_factor = 5000;  // cap 80000 > 0xffff: uint32 counters
    ExpectMatchesReference(p);
  }
}

TEST(Generator, MatchesSerialReferenceWhenMostVerticesSaturate) {
  // 128 vertices, 3.5 edges each against a cap at its floor of 4: most
  // vertices saturate, many inside the look-ahead window, so the consumer
  // redraws candidates and restarts the look-ahead over and over.
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    RmatParams p;
    p.num_vertices = 128;
    p.avg_degree = 3.5;
    p.max_degree_factor = 0.5;
    p.a = 0.6;
    p.b = p.c = 0.15;
    p.seed = seed;
    ExpectMatchesReference(p);
    const EdgeList el = GenerateRmat(p);
    std::vector<std::uint32_t> out(el.num_vertices, 0);
    for (const Edge& e : el.edges) ++out[e.src];
    EXPECT_GT(std::count(out.begin(), out.end(), 4u), 64);
  }
}

TEST(Csr, BuildsOffsetsAndSortedNeighbors) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {{0, 2, 5}, {0, 1, 3}, {2, 3, 1}, {0, 3, 2}};
  AddressSpace space;
  CsrGraph g(el, space);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 3u);
  EXPECT_EQ(g.OutDegree(1), 0u);
  EXPECT_EQ(g.OutDegree(2), 1u);
  auto n0 = g.Neighbors(0);
  ASSERT_EQ(n0.size(), 3u);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
  // Weights follow their edges through the sort.
  auto w0 = g.Weights(0);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(w0[0], 3u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(w0[1], 5u);
}

TEST(Csr, DedupKeepsSmallestWeight) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {{0, 1, 9}, {0, 1, 7}, {0, 2, 1}};
  AddressSpace space;
  CsrGraph g(el, space, /*dedup=*/true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.Neighbors(0)[0], 1u);
  EXPECT_EQ(g.Weights(0)[0], 7u);
}

// Expects the CSR of `el` to be the same at every thread count.
void ExpectSameAtEveryThreadCount(const EdgeList& el, bool dedup) {
  AddressSpace ref_space;
  const CsrGraph ref(el, ref_space, dedup, 1);
  for (unsigned threads : {2u, 3u, 4u, 7u, 64u}) {
    AddressSpace space;
    const CsrGraph g(el, space, dedup, threads);
    ASSERT_EQ(g.num_edges(), ref.num_edges()) << threads << " threads";
    for (VertexId v = 0; v < el.num_vertices; ++v) {
      ASSERT_EQ(g.OffsetOf(v), ref.OffsetOf(v)) << threads << " threads, v=" << v;
    }
    const auto all = [](const CsrGraph& c) {
      return std::pair(std::vector<VertexId>(c.Neighbors(0).data(),
                                             c.Neighbors(0).data() + c.num_edges()),
                       std::vector<std::uint32_t>(c.Weights(0).data(),
                                                  c.Weights(0).data() + c.num_edges()));
    };
    EXPECT_TRUE(all(g) == all(ref)) << threads << " threads, dedup=" << dedup;
    EXPECT_EQ(g.StructureBytes(), ref.StructureBytes());
  }
}

TEST(Csr, SameAtEveryThreadCount) {
  const EdgeList ldbc = GenerateProfile("ldbc", 4096, 3);
  // Not a whole number of the build's 1024-vertex source blocks.
  const EdgeList uniform = GenerateUniform(20000, 4, 9);
  // Five vertices (fewer than most of the thread counts), two of them
  // without out-edges, parallel edges with unequal weights.
  EdgeList tiny;
  tiny.num_vertices = 5;
  tiny.edges = {{4, 0, 2}, {0, 2, 5}, {2, 4, 1}, {0, 2, 3}, {4, 0, 2},
                {0, 1, 9}, {2, 4, 8}, {4, 3, 1}, {0, 2, 5}};
  for (bool dedup : {false, true}) {
    ExpectSameAtEveryThreadCount(ldbc, dedup);
    ExpectSameAtEveryThreadCount(uniform, dedup);
    ExpectSameAtEveryThreadCount(tiny, dedup);
  }
}

TEST(Csr, OutOfRangeEndpointPanicsAtEveryThreadCount) {
  EdgeList el = GenerateProfile("ldbc", 256, 5);
  const std::size_t m = el.edges.size();
  for (unsigned threads : {1u, 2u, 3u, 4u, 7u, 64u}) {
    for (std::size_t at : {std::size_t{0}, m / 2, m - 1}) {
      for (bool bad_src : {false, true}) {
        EdgeList bad = el;
        (bad_src ? bad.edges[at].src : bad.edges[at].dst) = bad.num_vertices;
        AddressSpace space;
        EXPECT_DEATH({ CsrGraph g(bad, space, false, threads); },
                     "edge endpoint out of range")
            << threads << " threads, edge " << at;
      }
    }
  }
}

TEST(Csr, StructureAddressesInStructureSegment) {
  EdgeList el = GenerateUniform(64, 4, 3);
  AddressSpace space;
  CsrGraph g(el, space);
  EXPECT_EQ(space.ComponentOf(g.OffsetAddr(0)), DataComponent::kStructure);
  EXPECT_EQ(space.ComponentOf(g.NeighborAddr(0)), DataComponent::kStructure);
  EXPECT_EQ(space.ComponentOf(g.WeightAddr(0)), DataComponent::kStructure);
  EXPECT_GT(g.StructureBytes(), 0u);
}

TEST(Csr, EdgeIdsMatchOffsets) {
  EdgeList el = GenerateUniform(128, 8, 5);
  AddressSpace space;
  CsrGraph g(el, space);
  EdgeId total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.OffsetOf(v), total);
    total += g.OutDegree(v);
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(EdgeListIo, RoundTrip) {
  EdgeList el;
  el.num_vertices = 5;
  el.edges = {{0, 1, 2}, {3, 4, 7}, {2, 0, 1}};
  std::string path = ::testing::TempDir() + "/graphpim_el_test.txt";
  ASSERT_TRUE(SaveEdgeList(el, path));
  EdgeList in;
  ASSERT_TRUE(LoadEdgeList(path, &in));
  ASSERT_EQ(in.edges.size(), el.edges.size());
  EXPECT_EQ(in.num_vertices, 5u);
  EXPECT_TRUE(std::equal(el.edges.begin(), el.edges.end(), in.edges.begin()));
  std::remove(path.c_str());
}

// Writes `text` to a temp file, loads it, and returns the SimError message
// ("" if the load succeeded).
std::string LoadText(const std::string& text, EdgeList* el) {
  const std::string path = ::testing::TempDir() + "/graphpim_el_bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(text.c_str(), f);
  std::fclose(f);
  std::string msg;
  try {
    EXPECT_TRUE(LoadEdgeList(path, el));
  } catch (const SimError& e) {
    msg = e.message();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
  }
  std::remove(path.c_str());
  return msg;
}

TEST(EdgeListIo, RejectsIdsThatWrapTheVertexCount) {
  EdgeList el;
  // The largest id + 1 must fit in a VertexId: 4294967295 would wrap the
  // vertex count to 0, and "-1" is that id once parsed as unsigned.
  for (const char* bad : {"0 4294967295 1", "4294967295 0", "-1 3 1", "2 -1",
                          "99999999999999999999 1", "1 2 4294967296",
                          "1 2 -5", "1 x 2"}) {
    const std::string msg = LoadText(std::string("# header\n0 1 2\n") + bad + "\n", &el);
    EXPECT_NE(msg.find("line 3"), std::string::npos) << bad << ": " << msg;
  }
  EXPECT_EQ(LoadText("4294967294 0 4294967295\n", &el), "");
  EXPECT_EQ(el.num_vertices, 4294967295u);
  EXPECT_EQ(el.edges[0].weight, 4294967295u);
  EXPECT_EQ(LoadText("3 1\r\n1\t2 5 extra\n", &el), "");
  EXPECT_EQ(el.num_vertices, 4u);
  EXPECT_TRUE(el.edges == (std::vector<Edge>{{3, 1, 1}, {1, 2, 5}}));
}

TEST(EdgeListIo, LoadMissingFileFails) {
  EdgeList el;
  EXPECT_FALSE(LoadEdgeList("/nonexistent/path/x.el", &el));
}

}  // namespace
}  // namespace graphpim::graph
