// Trace-driven workloads: replaces the synthetic generators with a
// recorded instruction stream, so users can drive the simulator with
// traces captured from real applications (e.g. converted from GPGPU-Sim or
// NVBit output).
//
// Format (text, one record per line, '#' comments):
//   A                          — ALU warp instruction
//   L <addr> [<addr> ...]      — load touching up to 4 line addresses
//                                 (unsigned hex "0x..." or decimal; no
//                                 sign or trailing text)
//   S <addr> [<addr> ...]      — store
//
// The file holds one canonical warp stream; TraceFileSource hands each
// (core, warp) its own cursor into the stream, offset so that warps do not
// run in lock-step (matching how real warps interleave one kernel's
// instructions). Addresses of different cores are relocated into disjoint
// regions unless the record's address has the shared-region bit set (bit
// 47), in which case it is used verbatim — letting traces express both
// private and shared data.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "gpu/instr.hpp"

namespace arinoc {

/// Parsed trace: a sequence of warp instructions.
class Trace {
 public:
  /// Parses from a stream. Malformed input throws std::invalid_argument as
  /// "<origin>:<line>: <what>" (a configuration error, exit 2 in the CLI).
  static Trace parse(std::istream& in, const std::string& origin = "trace");
  /// Parses a file; errors name `path` as their origin.
  static Trace load(const std::string& path);

  /// Serializes back to the trace text format (round-trip safe).
  std::string to_text() const;

  void append(const Instr& instr) { instrs_.push_back(instr); }
  std::size_t size() const { return instrs_.size(); }
  bool empty() const { return instrs_.empty(); }
  const Instr& at(std::size_t i) const { return instrs_[i]; }

  /// Largest private (non-shared) address in the trace, for relocation.
  Addr max_private_addr() const;

  /// Bit marking an address as shared across cores (used verbatim).
  static constexpr Addr kSharedBit = Addr{1} << 47;

 private:
  std::vector<Instr> instrs_;
};

/// InstrSource that replays a Trace for every (core, warp), looping.
class TraceFileSource : public InstrSource {
 public:
  TraceFileSource(Trace trace, std::uint32_t num_cores,
                  std::uint32_t warps_per_core, std::uint32_t line_bytes);

  Instr next(std::uint32_t core, std::uint32_t warp) override;

  const Trace& trace() const { return trace_; }

 private:
  Trace trace_;
  std::uint32_t num_cores_;
  std::uint32_t warps_per_core_;
  std::uint32_t line_bytes_;
  Addr core_region_bytes_;
  std::vector<std::size_t> cursor_;  ///< Per (core, warp).
};

}  // namespace arinoc
