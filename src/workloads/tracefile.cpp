#include "workloads/tracefile.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace arinoc {

namespace {

/// One address token: an unsigned hex ("0x..."), octal ("0...") or decimal
/// number filling the whole token. No sign, no trailing text, no overflow.
bool parse_addr(const std::string& tok, Addr& out) {
  if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  out = static_cast<Addr>(std::strtoull(tok.c_str(), &end, 0));
  return errno == 0 && end == tok.c_str() + tok.size();
}

}  // namespace

Trace Trace::parse(std::istream& in, const std::string& origin) {
  Trace trace;
  std::string line;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& msg) {
    throw std::invalid_argument(origin + ":" + std::to_string(lineno) + ": " +
                                msg);
  };
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op)) continue;  // Blank/comment line.
    Instr instr;
    if (op == "A") {
      trace.append(instr);
      continue;
    }
    if (op != "L" && op != "S") fail("unknown op '" + op + "'");
    instr.is_mem = true;
    instr.is_store = (op == "S");
    std::string tok;
    while (ls >> tok) {
      if (instr.num_lines >= Instr::kMaxLines) fail("more than 4 addresses");
      if (!parse_addr(tok, instr.lines[instr.num_lines++])) {
        fail("bad address '" + tok + "'");
      }
    }
    if (instr.num_lines == 0) fail("memory op without address");
    trace.append(instr);
  }
  if (trace.empty()) throw std::invalid_argument(origin + ": empty trace");
  return trace;
}

Trace Trace::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open trace file: " + path);
  return parse(in, path);
}

std::string Trace::to_text() const {
  std::ostringstream os;
  for (const Instr& i : instrs_) {
    if (!i.is_mem) {
      os << "A\n";
      continue;
    }
    os << (i.is_store ? "S" : "L");
    for (std::uint8_t k = 0; k < i.num_lines; ++k) {
      os << " 0x" << std::hex << i.lines[k] << std::dec;
    }
    os << "\n";
  }
  return os.str();
}

Addr Trace::max_private_addr() const {
  Addr max_addr = 0;
  for (const Instr& i : instrs_) {
    for (std::uint8_t k = 0; k < i.num_lines; ++k) {
      if (!(i.lines[k] & kSharedBit)) {
        max_addr = std::max(max_addr, i.lines[k]);
      }
    }
  }
  return max_addr;
}

TraceFileSource::TraceFileSource(Trace trace, std::uint32_t num_cores,
                                 std::uint32_t warps_per_core,
                                 std::uint32_t line_bytes)
    : trace_(std::move(trace)),
      num_cores_(num_cores),
      warps_per_core_(warps_per_core),
      line_bytes_(line_bytes),
      cursor_(static_cast<std::size_t>(num_cores) * warps_per_core) {
  // Private regions are sized to the trace footprint, line-aligned up.
  const Addr footprint = trace_.max_private_addr() + line_bytes;
  core_region_bytes_ = (footprint + line_bytes - 1) / line_bytes * line_bytes;
  // Stagger warp start positions through the stream.
  for (std::uint32_t c = 0; c < num_cores; ++c) {
    for (std::uint32_t w = 0; w < warps_per_core; ++w) {
      cursor_[static_cast<std::size_t>(c) * warps_per_core + w] =
          (static_cast<std::size_t>(w) * trace_.size()) / warps_per_core;
    }
  }
}

Instr TraceFileSource::next(std::uint32_t core, std::uint32_t warp) {
  std::size_t& cur =
      cursor_[static_cast<std::size_t>(core) * warps_per_core_ + warp];
  Instr instr = trace_.at(cur);
  cur = (cur + 1) % trace_.size();
  if (instr.is_mem) {
    for (std::uint8_t k = 0; k < instr.num_lines; ++k) {
      Addr a = instr.lines[k];
      if (a & Trace::kSharedBit) {
        // Shared address: same location for every core, placed after all
        // private regions.
        a = (a & ~Trace::kSharedBit) + core_region_bytes_ * num_cores_;
      } else {
        a += core_region_bytes_ * core;  // Relocate into the core's region.
      }
      instr.lines[k] = a & ~static_cast<Addr>(line_bytes_ - 1);
    }
  }
  return instr;
}

}  // namespace arinoc
