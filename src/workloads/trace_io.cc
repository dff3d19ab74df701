#include "workloads/trace_io.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/log.h"

namespace graphpim::workloads {

namespace {

constexpr char kMagic[8] = {'G', 'P', 'T', 'R', 'A', 'C', 'E', '1'};

// On-disk micro-op record: fixed layout independent of MicroOp's in-memory
// packing.
struct Record {
  std::uint64_t addr;
  std::uint8_t type;
  std::uint8_t comp;
  std::uint8_t aop;
  std::uint8_t size;
  std::uint8_t flags;
  std::uint8_t compute_lat;
  std::uint8_t pad[2];
};
static_assert(sizeof(Record) == 16);

}  // namespace

bool SaveTrace(const Trace& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(kMagic, sizeof(kMagic), 1, f) == 1;
  std::uint64_t streams = trace.streams.size();
  ok = ok && std::fwrite(&streams, sizeof(streams), 1, f) == 1;
  for (const auto& s : trace.streams) {
    std::uint64_t n = s.size();
    ok = ok && std::fwrite(&n, sizeof(n), 1, f) == 1;
    for (const cpu::MicroOp& op : s) {
      Record r{};
      r.addr = op.addr;
      r.type = static_cast<std::uint8_t>(op.type);
      r.comp = static_cast<std::uint8_t>(op.comp);
      r.aop = static_cast<std::uint8_t>(op.aop);
      r.size = op.size;
      r.flags = op.flags;
      r.compute_lat = op.compute_lat;
      ok = ok && std::fwrite(&r, sizeof(r), 1, f) == 1;
      if (!ok) break;
    }
    if (!ok) break;
  }
  std::fclose(f);
  return ok;
}

bool LoadTrace(const std::string& path, Trace* out) {
  GP_CHECK(out != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  // Closes `f` on every exit, the throws included.
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> closer(f, &std::fclose);
  // File bytes not yet read; bounds the record counts the file declares.
  const long size = std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;
  if (size < 0) GP_THROW("cannot determine the size of trace file ", path);
  std::rewind(f);
  std::uint64_t remaining = static_cast<std::uint64_t>(size);
  auto read_exact = [&](void* dst, std::size_t bytes) {
    if (bytes > remaining || std::fread(dst, bytes, 1, f) != 1) return false;
    remaining -= bytes;
    return true;
  };

  char magic[8];
  if (!read_exact(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    GP_THROW("not a GraphPIM trace file: ", path);
  }
  std::uint64_t streams = 0;
  if (!read_exact(&streams, sizeof(streams)) || streams > 4096) {
    GP_THROW("corrupt trace header in ", path);
  }
  out->streams.assign(streams, {});
  // Every stream reaches every superstep barrier (TraceBuilder::Barrier).
  std::uint64_t barriers0 = 0;
  for (std::uint64_t si = 0; si < streams; ++si) {
    cpu::UopStream& s = out->streams[si];
    std::uint64_t barriers = 0;
    std::uint64_t n = 0;
    if (!read_exact(&n, sizeof(n))) {
      GP_THROW("truncated trace in ", path, ": stream ", si, " has no count");
    }
    if (n > remaining / sizeof(Record)) {
      GP_THROW("corrupt trace in ", path, ": stream ", si, " claims ", n,
               " records but only ", remaining, " bytes remain");
    }
    s.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Record r{};
      if (!read_exact(&r, sizeof(r))) {
        GP_THROW("truncated trace in ", path, ": stream ", si, " record ", i);
      }
      if (r.type > static_cast<std::uint8_t>(cpu::OpType::kFence) ||
          r.aop >= static_cast<std::uint8_t>(hmc::AtomicOp::kNumOps) ||
          r.comp > static_cast<std::uint8_t>(DataComponent::kProperty)) {
        GP_THROW("corrupt trace in ", path, ": stream ", si, " record ", i,
                 " has type ", +r.type, ", aop ", +r.aop, ", comp ", +r.comp,
                 " (out of range)");
      }
      cpu::MicroOp op;
      op.addr = r.addr;
      op.type = static_cast<cpu::OpType>(r.type);
      op.comp = static_cast<DataComponent>(r.comp);
      op.aop = static_cast<hmc::AtomicOp>(r.aop);
      op.size = r.size;
      op.flags = r.flags;
      op.compute_lat = r.compute_lat;
      s.push_back(op);
      if (op.type == cpu::OpType::kBarrier) ++barriers;
    }
    if (si == 0) barriers0 = barriers;
    if (barriers != barriers0) {
      GP_THROW("corrupt trace in ", path, ": stream ", si, " has ", barriers,
               " barriers but stream 0 has ", barriers0);
    }
  }
  return true;
}

}  // namespace graphpim::workloads
