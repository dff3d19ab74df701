#include "cpu/core.h"

#include <algorithm>

#include "common/log.h"

namespace graphpim::cpu {

OooCore::OooCore(int id, const CoreParams& params, MemoryInterface* mem)
    : id_(id),
      params_(params),
      mem_(mem),
      sid_insts_(stats_.Intern("core.insts")),
      sid_computes_(stats_.Intern("core.computes")),
      sid_branches_(stats_.Intern("core.branches")),
      sid_mispredicts_(stats_.Intern("core.mispredicts")),
      sid_loads_(stats_.Intern("core.loads")),
      sid_stores_(stats_.Intern("core.stores")),
      sid_atomics_(stats_.Intern("core.atomics")),
      sid_offloaded_atomics_(stats_.Intern("core.offloaded_atomics")),
      sid_atomic_incore_ticks_(stats_.Intern("core.atomic_incore_ticks")),
      sid_atomic_incache_ticks_(stats_.Intern("core.atomic_incache_ticks")),
      sid_atomic_dep_ticks_(stats_.Intern("core.atomic_dep_ticks")),
      sid_badspec_ticks_(stats_.Intern("core.badspec_ticks")),
      sid_frontend_ticks_(stats_.Intern("core.frontend_ticks")) {
  GP_CHECK(mem != nullptr);
  GP_CHECK(params.issue_width > 0 && params.rob_size > 0);
  cycle_ticks_ = static_cast<Tick>(1000.0 / params_.freq_ghz + 0.5);
  rob_.resize(static_cast<std::size_t>(params_.rob_size));
}

void OooCore::Reset(const UopStream* trace) {
  trace_ = trace;
  pos_ = 0;
  issue_tick_ = 0;
  issued_in_cycle_ = 0;
  issue_block_ = 0;
  rob_head_ = 0;
  rob_count_ = 0;
  prev_complete_ = 0;
  prev_was_atomic_ = false;
  max_outstanding_ = 0;
  max_store_complete_ = 0;
  barrier_arrival_ = 0;
  stats_.Reset();
}

Tick OooCore::NextIssueSlot() {
  if (issued_in_cycle_ >= params_.issue_width) {
    issue_tick_ += cycle_ticks_;
    issued_in_cycle_ = 0;
  }
  if (issue_block_ > issue_tick_) {
    issue_tick_ = issue_block_;
    issued_in_cycle_ = 0;
  }
  return issue_tick_;
}

void OooCore::ConsumeIssueSlot(Tick t) {
  if (t > issue_tick_) {
    issue_tick_ = t;
    issued_in_cycle_ = 0;
  }
  ++issued_in_cycle_;
}

Tick OooCore::Now() const {
  if (trace_ != nullptr && pos_ >= trace_->size()) {
    return std::max(issue_tick_, max_outstanding_);
  }
  return issue_tick_;
}

void OooCore::ReleaseBarrier(Tick release) {
  issue_block_ = std::max(issue_block_, release);
  // All in-flight work retired at the barrier.
  rob_count_ = 0;
  rob_head_ = 0;
  prev_complete_ = release;
  prev_was_atomic_ = false;
  max_outstanding_ = std::max(max_outstanding_, release);
  max_store_complete_ = release;
}

OooCore::Status OooCore::Advance(Tick until) {
  GP_CHECK(trace_ != nullptr, "Advance() before Reset()");
  // Column-wise tile walk: the tile pointer and lane bounds are hoisted
  // out of the per-op path, the barrier test reads only the 1KB type
  // column, and non-barrier ops are materialized from the columns right
  // at the issue site.
  const std::size_t n = trace_->size();
  while (pos_ < n) {
    const TraceTile& t = trace_->tile(pos_ >> kTileShift);
    std::size_t lane = pos_ & kTileMask;
    const std::size_t lane_end = std::min(kTileOps, lane + (n - pos_));
    for (; lane < lane_end; ++lane, ++pos_) {
      if (NextIssueSlot() >= until) return Status::kRunning;
      if (static_cast<OpType>(t.type[lane]) == OpType::kBarrier) {
        barrier_arrival_ = std::max(NextIssueSlot(), max_outstanding_);
        ++pos_;
        return Status::kBarrier;
      }
      IssueOp(t.Get(lane));
    }
  }
  return Status::kDone;
}

void OooCore::IssueOp(const MicroOp& op) {
  Tick dispatch = NextIssueSlot();

  // ROB space: retiring the head in order frees an entry; a long-latency
  // head stalls dispatch (the classic backend-bound case).
  if (rob_count_ == rob_.size()) {
    const RobEntry& head = rob_[rob_head_];
    if (head.complete > dispatch) {
      if (head.is_atomic) {
        stats_.Add(sid_atomic_dep_ticks_,
                   static_cast<double>(head.complete - dispatch));
      }
      dispatch = head.complete;
    }
    // Ring advance without the modulo (ROB sizes are not powers of two).
    if (++rob_head_ == rob_.size()) rob_head_ = 0;
    --rob_count_;
  }

  // Execution start: operands must be ready.
  Tick exec_start = dispatch;
  if (op.DepPrev() && prev_complete_ > exec_start) {
    if (prev_was_atomic_) {
      stats_.Add(sid_atomic_dep_ticks_,
                 static_cast<double>(prev_complete_ - exec_start));
    }
    exec_start = prev_complete_;
  }

  Tick complete = exec_start;       // value-ready time for dependents
  Tick retire = exec_start;         // when the ROB entry can retire
  bool is_atomic = false;

  switch (op.type) {
    case OpType::kCompute: {
      stats_.Inc(sid_computes_);
      std::uint64_t lat = (op.flags & kFlagFpCompute) != 0
                              ? static_cast<std::uint64_t>(params_.fp_compute_lat)
                              : op.compute_lat;
      complete = exec_start + CyclesToTicks(lat);
      retire = complete;
      break;
    }
    case OpType::kBranch: {
      stats_.Inc(sid_branches_);
      complete = exec_start + cycle_ticks_;
      retire = complete;
      // Taken-branch fetch redirection costs one bubble.
      issue_block_ = std::max(issue_block_, dispatch + cycle_ticks_);
      stats_.Add(sid_frontend_ticks_, static_cast<double>(cycle_ticks_));
      if (op.Mispredict()) {
        stats_.Inc(sid_mispredicts_);
        Tick penalty = CyclesToTicks(static_cast<std::uint64_t>(params_.mispredict_penalty));
        issue_block_ = std::max(issue_block_, complete + penalty);
        stats_.Add(sid_badspec_ticks_, static_cast<double>(penalty));
      }
      break;
    }
    case OpType::kLoad: {
      stats_.Inc(sid_loads_);
      MemOutcome out = mem_->Access(id_, op, exec_start);
      complete = out.complete;
      retire = out.complete;
      issue_block_ = std::max(issue_block_, out.issue_stall_until);
      break;
    }
    case OpType::kStore: {
      stats_.Inc(sid_stores_);
      MemOutcome out = mem_->Access(id_, op, exec_start);
      // Stores commit through the write buffer: dependents (if any) see the
      // value forwarded within a cycle; the entry retires quickly.
      complete = exec_start + cycle_ticks_;
      retire = complete;
      max_store_complete_ = std::max(max_store_complete_, out.complete);
      issue_block_ = std::max(issue_block_, out.issue_stall_until);
      break;
    }
    case OpType::kAtomic: {
      stats_.Inc(sid_atomics_);
      is_atomic = true;
      MemOutcome out = mem_->Access(id_, op, exec_start);
      issue_block_ = std::max(issue_block_, out.issue_stall_until);
      if (out.serializing) {
        // Host locked RMW (Section II-D / Fig 8): drain the write buffer,
        // freeze the pipeline for the in-core overhead window, and delay
        // dependents (and retirement) by the exclusive memory access. The
        // RMW miss itself overlaps with other in-flight misses via MSHRs.
        Tick drain = std::max(exec_start, max_store_complete_);
        Tick fixed =
            CyclesToTicks(static_cast<std::uint64_t>(params_.atomic_incore_overhead));
        Tick mem_lat = out.complete - exec_start;  // hierarchy access time
        complete = drain + fixed + mem_lat;
        retire = complete;
        issue_block_ = std::max(issue_block_, drain + fixed);
        stats_.Add(sid_atomic_incache_ticks_, static_cast<double>(out.check_ticks));
        // Only the non-overlappable freeze window counts as in-core time;
        // the RMW's memory latency surfaces through dependent stalls
        // (atomic_dep_ticks) and ROB pressure.
        stats_.Add(sid_atomic_incore_ticks_,
                   static_cast<double>((drain + fixed) - exec_start));
      } else {
        // Offloaded (or PEI host-executed) atomic: behaves like a
        // non-blocking load; posted forms retire without waiting.
        if (out.offloaded) stats_.Inc(sid_offloaded_atomics_);
        stats_.Add(sid_atomic_incache_ticks_, static_cast<double>(out.check_ticks));
        complete = op.WantReturn() ? out.complete : exec_start + cycle_ticks_;
        retire = op.WantReturn() ? out.complete : out.retire_ready;
      }
      break;
    }
    case OpType::kFlush: {
      // clwb-style line writeback: posted like a store — the writeback
      // proceeds in the persist queue and only a later fence waits on it.
      MemOutcome out = mem_->Access(id_, op, exec_start);
      complete = exec_start + cycle_ticks_;
      retire = complete;
      max_store_complete_ = std::max(max_store_complete_, out.complete);
      break;
    }
    case OpType::kFence: {
      // sfence-style persist barrier: completes no earlier than every prior
      // flush/store and serializes issue behind itself.
      MemOutcome out = mem_->Access(id_, op, exec_start);
      complete = std::max(out.complete, max_store_complete_);
      retire = complete;
      issue_block_ = std::max(issue_block_, complete);
      break;
    }
    case OpType::kBarrier:
      GP_PANIC("barrier reached IssueOp");
  }

  ConsumeIssueSlot(dispatch);
  stats_.Inc(sid_insts_);

  std::size_t tail = rob_head_ + rob_count_;  // rob_count_ < size: one wrap
  if (tail >= rob_.size()) tail -= rob_.size();
  rob_[tail] = RobEntry{retire, is_atomic};
  ++rob_count_;

  prev_complete_ = complete;
  prev_was_atomic_ = is_atomic;
  max_outstanding_ = std::max(max_outstanding_, std::max(complete, retire));
}

}  // namespace graphpim::cpu
