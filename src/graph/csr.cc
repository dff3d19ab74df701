#include "graph/csr.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <memory>
#include <numeric>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/log.h"

namespace graphpim::graph {

namespace {

// Sources are grouped in blocks of kBlock consecutive vertices. A block's
// edges (about 30K at the LDBC degree) fit in L2, so the random part of the
// build (the per-vertex scatter and sorts) runs in cache; the pass over
// the whole edge list only appends to one stream per block.
constexpr unsigned kBlockShift = 10;
constexpr VertexId kBlock = VertexId{1} << kBlockShift;

// The in-block counting sort orders destinations by their top kTopBits
// bits, which leaves a list of L edges about L^2 / 2^(kTopBits + 2) pairs
// out of order: an insertion sort finishes short lists with few moves.
// Longer lists, whose worst case would be quadratic, use std::sort.
constexpr unsigned kTopBits = 11;
constexpr std::ptrdiff_t kInsertionSortMax = 256;

// Below this many edges per thread, a thread's start-up and its extra scans
// of the whole edge list cost more than its share of the build saves.
constexpr std::size_t kMinEdgesPerThread = std::size_t{1} << 20;

// CPUs this thread may run on: a process pinned to fewer CPUs than the
// host has gains nothing from more threads than that.
unsigned UsableCpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned BuildThreads(std::size_t num_edges, unsigned requested) {
  if (requested != 0) return requested;
  return static_cast<unsigned>(std::min<std::size_t>(
      UsableCpus(), std::max<std::size_t>(1, num_edges / kMinEdgesPerThread)));
}

void InsertionSort(std::uint64_t* first, std::uint64_t* last) {
  for (std::ptrdiff_t i = 1; i < last - first; ++i) {
    const std::uint64_t x = first[i];
    std::ptrdiff_t j = i;
    for (; j > 0 && first[j - 1] > x; --j) first[j] = first[j - 1];
    first[j] = x;
  }
}

// Runs fn(t) for t in [0, threads), fn(0) on the calling thread, joins,
// and rethrows the first exception any of them raised.
template <typename Fn>
void ForEachThread(unsigned threads, const Fn& fn) {
  std::vector<std::exception_ptr> errors(threads);
  auto run = [&](unsigned t) {
    try {
      fn(t);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t) workers.emplace_back(run, t);
    run(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

CsrGraph::CsrGraph(const EdgeList& el, AddressSpace& space, bool dedup,
                   unsigned threads)
    : num_vertices_(el.num_vertices) {
  GP_CHECK(num_vertices_ > 0, "empty graph");
  const VertexId n = num_vertices_;
  const std::size_t m = el.edges.size();
  const std::size_t num_blocks = (std::size_t{n} + kBlock - 1) / kBlock;
  const unsigned nt = BuildThreads(m, threads);

  // Thread t owns the source blocks [bound[t], bound[t+1]): it alone
  // partitions, scatters, sorts and writes their edges, so every adjacency
  // list is written by one thread and the result does not depend on the
  // thread count. The first split is by block count; it is rebalanced by
  // edges once the blocks are counted.
  std::vector<std::size_t> bound(nt + 1);
  for (unsigned t = 0; t <= nt; ++t) bound[t] = num_blocks * t / nt;
  auto first_vertex = [&](std::size_t block) {
    return static_cast<VertexId>(std::min<std::size_t>(block * kBlock, n));
  };

  // Count edges per source block. Each edge's endpoints are checked exactly
  // once, by the thread whose slice of the edge list holds it; `src - lo <
  // span` also skips every out-of-range source.
  std::vector<EdgeId> block_start(num_blocks + 1, 0);
  std::vector<char> in_range(nt, 1);
  ForEachThread(nt, [&](unsigned t) {
    bool ok = true;
    for (std::size_t i = m * t / nt, end = m * (t + 1) / nt; i < end; ++i) {
      ok &= el.edges[i].src < n && el.edges[i].dst < n;
    }
    in_range[t] = ok;
    const VertexId lo = first_vertex(bound[t]);
    const VertexId span = first_vertex(bound[t + 1]) - lo;
    EdgeId* count = block_start.data() + 1;
    for (const Edge& e : el.edges) {
      if (e.src - lo < span) ++count[e.src >> kBlockShift];
    }
  });
  GP_CHECK(std::count(in_range.begin(), in_range.end(), 0) == 0,
           "edge endpoint out of range");
  std::partial_sum(block_start.begin(), block_start.end(), block_start.begin());
  for (unsigned t = 1; t < nt; ++t) {
    bound[t] = static_cast<std::size_t>(
        std::lower_bound(block_start.begin(), block_start.end(), m * t / nt) -
        block_start.begin());
  }

  // Partition: append each edge to its source block, its destination and
  // weight already in the final arrays and its source's offset within the
  // block in a 16-bit side array.
  neighbors_.resize(m);
  weights_.resize(m);
  auto local_src = std::make_unique_for_overwrite<std::uint16_t[]>(m);
  ForEachThread(nt, [&](unsigned t) {
    const VertexId lo = first_vertex(bound[t]);
    const VertexId span = first_vertex(bound[t + 1]) - lo;
    std::vector<EdgeId> cursor(block_start.begin() + bound[t],
                               block_start.begin() + bound[t + 1]);
    for (const Edge& e : el.edges) {
      if (e.src - lo < span) {
        const EdgeId i = cursor[(e.src >> kBlockShift) - bound[t]]++;
        neighbors_[i] = e.dst;
        weights_[i] = e.weight;
        local_src[i] = static_cast<std::uint16_t>(e.src & (kBlock - 1));
      }
    }
  });

  // Per block, in cache: counting-sort the block's edges by the top bits of
  // their destination and then, stably, by source. Every list then comes
  // out ordered by those top bits, and an insertion sort of its packed
  // (dst << 32 | weight) words finishes it with few moves. With both halves
  // 32-bit, unsigned 64-bit comparison is the (dst, weight) lexicographic
  // order. Dedup keeps the first word of every destination run (its
  // smallest weight), compacting the thread's lists toward its first edge;
  // offsets_[v + 1] is first written as a position in that compacted run.
  const unsigned dst_bits = static_cast<unsigned>(std::bit_width(n - 1));
  const unsigned top_shift = dst_bits > kTopBits ? dst_bits - kTopBits : 0;
  offsets_.assign(std::size_t{n} + 1, 0);
  std::vector<EdgeId> kept(nt);
  ForEachThread(nt, [&](unsigned t) {
    std::vector<EdgeId> top(std::size_t{1} << kTopBits);
    std::vector<EdgeId> vcount(kBlock + 1);
    std::vector<std::uint64_t> key, key_by_src;
    std::vector<std::uint16_t> src;
    EdgeId w = block_start[bound[t]];
    for (std::size_t blk = bound[t]; blk < bound[t + 1]; ++blk) {
      const EdgeId b = block_start[blk];
      const EdgeId len = block_start[blk + 1] - b;
      const VertexId v0 = first_vertex(blk);
      const VertexId nv = first_vertex(blk + 1) - v0;
      if (key.size() < len) {
        key.resize(len);
        key_by_src.resize(len);
        src.resize(len);
      }
      std::fill(top.begin(), top.end(), 0);
      std::fill(vcount.begin(), vcount.begin() + nv + 1, 0);
      for (EdgeId i = b; i < b + len; ++i) {
        ++top[neighbors_[i] >> top_shift];
        ++vcount[local_src[i] + 1];
      }
      std::exclusive_scan(top.begin(), top.end(), top.begin(), EdgeId{0});
      std::partial_sum(vcount.begin(), vcount.begin() + nv + 1, vcount.begin());
      for (EdgeId i = b; i < b + len; ++i) {
        const EdgeId j = top[neighbors_[i] >> top_shift]++;
        key[j] = (static_cast<std::uint64_t>(neighbors_[i]) << 32) | weights_[i];
        src[j] = local_src[i];
      }
      for (EdgeId i = 0; i < len; ++i) key_by_src[vcount[src[i]]++] = key[i];
      // vcount[j] is now the end of local vertex j's list.
      for (VertexId j = 0; j < nv; ++j) {
        std::uint64_t* first = key_by_src.data() + (j == 0 ? 0 : vcount[j - 1]);
        std::uint64_t* last = key_by_src.data() + vcount[j];
        if (last - first > kInsertionSortMax) {
          std::sort(first, last);
        } else {
          InsertionSort(first, last);
        }
        for (const std::uint64_t* k = first; k < last; ++k) {
          if (dedup && k > first && (*k >> 32) == (k[-1] >> 32)) continue;
          neighbors_[w] = static_cast<VertexId>(*k >> 32);
          weights_[w] = static_cast<std::uint32_t>(*k);
          ++w;
        }
        offsets_[v0 + j + 1] = w;
      }
    }
    kept[t] = w - block_start[bound[t]];
  });

  if (dedup) {
    // Close the gaps the compaction left between threads, in thread order:
    // every move is toward the front and lands past the previous thread's
    // lists, so it never overwrites lists still to be moved.
    EdgeId to = 0;
    for (unsigned t = 0; t < nt; ++t) {
      const EdgeId from = block_start[bound[t]];
      std::copy(neighbors_.begin() + from, neighbors_.begin() + from + kept[t],
                neighbors_.begin() + to);
      std::copy(weights_.begin() + from, weights_.begin() + from + kept[t],
                weights_.begin() + to);
      for (VertexId v = first_vertex(bound[t]); v < first_vertex(bound[t + 1]); ++v) {
        offsets_[v + 1] = offsets_[v + 1] - from + to;
      }
      to += kept[t];
    }
    neighbors_.resize(to);
    weights_.resize(to);
  }

  offsets_addr_ = space.structure().Allocate(offsets_.size() * sizeof(EdgeId));
  neighbors_addr_ = space.structure().Allocate(neighbors_.size() * sizeof(VertexId));
  weights_addr_ = space.structure().Allocate(weights_.size() * sizeof(std::uint32_t));
}

std::uint64_t CsrGraph::StructureBytes() const {
  return offsets_.size() * sizeof(EdgeId) + neighbors_.size() * sizeof(VertexId) +
         weights_.size() * sizeof(std::uint32_t);
}

}  // namespace graphpim::graph
