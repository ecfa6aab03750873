// Communication/compute trace recording.
//
// The engine records one CommRecord per communication-group execution and
// one ComputeRecord per per-GPU compute span. The window analyzer (Fig. 4),
// the Gantt exporter (Fig. 3), and the Opus shim's profiling pass all consume
// this trace.
#pragma once

#include <string>
#include <vector>

#include "collective/comm_group.h"
#include "collective/schedule.h"
#include "common/ids.h"
#include "common/units.h"

namespace opus::trace {

struct CommRecord {
  int iteration = 0;
  /// Rail carrying the traffic; invalid for scale-up-only collectives.
  RailId rail;
  GroupId group;
  std::string group_name;
  collective::ParallelismDim dim = collective::ParallelismDim::kOther;
  collective::CollectiveType type = collective::CollectiveType::kAllReduce;
  Bytes payload = 0;
  /// When the slowest participating rank joined (the paper's T_comm_start).
  TimeNs t_issue = 0;
  /// When data finished moving on every rank (the paper's T_comm_end).
  TimeNs t_end = 0;
  /// True when the group crosses scale-up domains (uses the rails).
  bool scale_out = false;

  TimeNs duration() const { return t_end - t_issue; }
};

struct ComputeRecord {
  int iteration = 0;
  GpuId gpu;
  TimeNs t_start = 0;
  TimeNs t_end = 0;
  std::string label;
  int pp_stage = -1;
  int microbatch = -1;
};

struct IterationSpan {
  int index = 0;
  TimeNs t_start = 0;
  TimeNs t_end = 0;
  TimeNs duration() const { return t_end - t_start; }
};

class TraceRecorder {
 public:
  /// When false, compute records are dropped (comm records always kept).
  explicit TraceRecorder(bool record_compute = true)
      : record_compute_(record_compute) {}

  void begin_iteration(TimeNs now);
  void end_iteration(TimeNs now);

  void record_comm(CommRecord rec);
  void record_compute(ComputeRecord rec);

  const std::vector<CommRecord>& comm_records() const { return comm_; }
  const std::vector<ComputeRecord>& compute_records() const {
    return compute_;
  }
  const std::vector<IterationSpan>& iterations() const { return spans_; }

  /// Comm records of one iteration restricted to one rail (scale-out only),
  /// sorted by issue time — the unit of the paper's window analysis.
  std::vector<CommRecord> rail_comms(int iteration, RailId rail) const;

  /// Scale-out comm records of one iteration on any rail, sorted by issue.
  std::vector<CommRecord> scale_out_comms(int iteration) const;

  void clear();

 private:
  bool record_compute_;
  int current_iteration_ = -1;
  std::vector<CommRecord> comm_;
  std::vector<ComputeRecord> compute_;
  std::vector<IterationSpan> spans_;
};

}  // namespace opus::trace
